package crc

import (
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// oracleTable is the slicing-by-8 table of the package's original
// from-scratch CRC-32C: table[0] is the classic byte-at-a-time table and
// table[1..7] extend it. It is kept here, and only here, as an independent
// oracle for the stdlib-backed implementation.
var oracleTable = func() (t [8][256]uint32) {
	for i := 0; i < 256; i++ {
		c := uint32(i)
		for j := 0; j < 8; j++ {
			if c&1 == 1 {
				c = (c >> 1) ^ Poly
			} else {
				c >>= 1
			}
		}
		t[0][i] = c
	}
	for i := 0; i < 256; i++ {
		c := t[0][i]
		for k := 1; k < 8; k++ {
			c = t[0][c&0xff] ^ (c >> 8)
			t[k][i] = c
		}
	}
	return t
}()

// oracleUpdate advances a raw (non-inverted) CRC state over p using
// slicing-by-8.
func oracleUpdate(crc uint32, p []byte) uint32 {
	t := &oracleTable
	for len(p) >= 8 {
		crc ^= uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
		crc = t[7][crc&0xff] ^
			t[6][(crc>>8)&0xff] ^
			t[5][(crc>>16)&0xff] ^
			t[4][(crc>>24)&0xff] ^
			t[3][p[4]] ^
			t[2][p[5]] ^
			t[1][p[6]] ^
			t[0][p[7]]
		p = p[8:]
	}
	for _, b := range p {
		crc = t[0][byte(crc)^b] ^ (crc >> 8)
	}
	return crc
}

// oracleState is the oracle's view of one stream: the raw register and
// the standard (inverted) register, both started after a prefix.
type oracleState struct {
	raw, std uint32 // register values, before any final inversion
}

func startOracle(prefix []byte) oracleState {
	return oracleState{raw: oracleUpdate(0, prefix), std: oracleUpdate(0xffffffff, prefix)}
}

func (o oracleState) update(p []byte) oracleState {
	return oracleState{raw: oracleUpdate(o.raw, p), std: oracleUpdate(o.std, p)}
}

// checkAgainstOracle compares all four entry points on data with the
// oracle: Raw and Checksum from a fresh start (zero and zero-prefix
// states), RawUpdate and Update continuing from the prefix, whose oracle
// states are pre and fresh/cont the states after data.
func checkAgainstOracle(t *testing.T, pre, fresh, cont oracleState, data []byte) {
	t.Helper()
	if got := Raw(data); got != fresh.raw {
		t.Fatalf("Raw len=%d: %08x, oracle %08x", len(data), got, fresh.raw)
	}
	if got, want := Checksum(data), fresh.std^0xffffffff; got != want {
		t.Fatalf("Checksum len=%d: %08x, oracle %08x", len(data), got, want)
	}
	if got := RawUpdate(pre.raw, data); got != cont.raw {
		t.Fatalf("RawUpdate len=%d: %08x, oracle %08x", len(data), got, cont.raw)
	}
	if got, want := Update(pre.std^0xffffffff, data), cont.std^0xffffffff; got != want {
		t.Fatalf("Update len=%d: %08x, oracle %08x", len(data), got, want)
	}
}

// TestRawMatchesOracle checks Raw/RawUpdate/Checksum/Update against the
// slicing-by-8 oracle for every length 0–9000 at every offset 0–7, so
// each alignment the hardware path special-cases is covered. The oracle
// advances one byte per length, so its cost stays linear.
func TestRawMatchesOracle(t *testing.T) {
	buf := make([]byte, 9000+8)
	rand.New(rand.NewSource(8)).Read(buf)
	for off := 0; off < 8; off++ {
		pre := startOracle(buf[:off])
		fresh, cont := startOracle(nil), pre
		for n := 0; n <= 9000; n++ {
			if n > 0 {
				b := buf[off+n-1 : off+n]
				fresh, cont = fresh.update(b), cont.update(b)
			}
			checkAgainstOracle(t, pre, fresh, cont, buf[off:off+n])
		}
	}
}

// FuzzRaw cross-checks the four entry points against the oracle on
// arbitrary inputs split at an arbitrary point.
func FuzzRaw(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte("123456789"), uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		at := int(split) % (len(data) + 1)
		pre := startOracle(data[:at])
		checkAgainstOracle(t, pre, startOracle(data[at:]), pre.update(data[at:]), data[at:])
	})
}

func TestChecksumMatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(9000)
		data := make([]byte, n)
		r.Read(data)
		want := crc32.Checksum(data, castagnoli)
		if got := Checksum(data); got != want {
			t.Fatalf("len=%d: Checksum = %08x, want %08x", n, got, want)
		}
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// iSCSI test vector: CRC32C("123456789") = 0xE3069283.
	if got := Checksum([]byte("123456789")); got != 0xe3069283 {
		t.Fatalf("got %08x", got)
	}
}

func TestUpdateIncremental(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	whole := Checksum(data)
	for split := 0; split <= len(data); split++ {
		part := Checksum(data[:split])
		got := Update(part, data[split:])
		if got != whole {
			t.Fatalf("split=%d: incremental %08x != whole %08x", split, got, whole)
		}
	}
}

func TestRawLinearity(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(4096)
		a := make([]byte, n)
		b := make([]byte, n)
		x := make([]byte, n)
		r.Read(a)
		r.Read(b)
		XorBlocks(x, a, b)
		if Raw(x) != Raw(a)^Raw(b) {
			t.Fatalf("linearity violated at len %d", n)
		}
	}
}

func TestRawLinearityProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		x := make([]byte, n)
		XorBlocks(x, a, b)
		return Raw(x) == Raw(a)^Raw(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStandardChecksumIsNotLinear(t *testing.T) {
	// Documents why the aggregation uses Raw, not Checksum: the init/final
	// inversions break linearity.
	a := []byte{1, 2, 3, 4}
	b := []byte{5, 6, 7, 8}
	x := make([]byte, 4)
	XorBlocks(x, a, b)
	if Checksum(x) == Checksum(a)^Checksum(b) {
		t.Fatal("expected standard CRC to violate XOR linearity")
	}
}

func TestCombine(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		la, lb := r.Intn(2048), r.Intn(2048)
		a := make([]byte, la)
		b := make([]byte, lb)
		r.Read(a)
		r.Read(b)
		whole := Checksum(append(append([]byte{}, a...), b...))
		got := Combine(Checksum(a), Checksum(b), int64(lb))
		if got != whole {
			t.Fatalf("combine(la=%d, lb=%d) = %08x, want %08x", la, lb, got, whole)
		}
	}
}

func TestCombineZeroLength(t *testing.T) {
	a := Checksum([]byte("hello"))
	if got := Combine(a, Checksum(nil), 0); got != a {
		t.Fatalf("combine with empty B changed CRC: %08x", got)
	}
}

func TestXorAggregate(t *testing.T) {
	crcs := []uint32{0xdeadbeef, 0x12345678, 0xdeadbeef}
	if got := XorAggregate(crcs); got != 0x12345678 {
		t.Fatalf("got %08x", got)
	}
	if got := XorAggregate(nil); got != 0 {
		t.Fatalf("empty aggregate = %08x", got)
	}
}

func TestAggregatorDetectsCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	const blockSize = 4096
	const blocks = 16

	payloads := make([][]byte, blocks)
	for i := range payloads {
		payloads[i] = make([]byte, blockSize)
		r.Read(payloads[i])
	}

	// Clean run: FPGA CRCs match expected.
	var agg Aggregator
	for _, p := range payloads {
		c := Raw(p)
		agg.AddBlockCRC(c) // what the FPGA reported
		agg.AddExpected(c) // trusted metadata
	}
	if !agg.Verify() {
		t.Fatal("clean segment failed verification")
	}
	if agg.Blocks() != blocks {
		t.Fatalf("blocks = %d", agg.Blocks())
	}

	// Corrupted run: flip one bit in one block after CRC was computed —
	// the FPGA reports the CRC of the corrupted data.
	agg.Reset()
	for i, p := range payloads {
		agg.AddExpected(Raw(p))
		if i == 7 {
			corrupted := append([]byte{}, p...)
			corrupted[1234] ^= 0x10
			agg.AddBlockCRC(Raw(corrupted))
		} else {
			agg.AddBlockCRC(Raw(p))
		}
	}
	if agg.Verify() {
		t.Fatal("single-bit corruption not detected")
	}
}

func TestAggregatorEveryBitPosition(t *testing.T) {
	// Any single-bit flip in any block must be caught (CRC detects all
	// single-bit errors; XOR folding preserves a single block's error).
	p := make([]byte, 512)
	rand.New(rand.NewSource(5)).Read(p)
	clean := Raw(p)
	for byteIdx := 0; byteIdx < len(p); byteIdx += 37 {
		for bit := 0; bit < 8; bit++ {
			p[byteIdx] ^= 1 << bit
			var agg Aggregator
			agg.AddExpected(clean)
			agg.AddBlockCRC(Raw(p))
			if agg.Verify() {
				t.Fatalf("flip at %d.%d undetected", byteIdx, bit)
			}
			p[byteIdx] ^= 1 << bit
		}
	}
}

func TestXorBlocksPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	XorBlocks(make([]byte, 4), make([]byte, 5))
}

func BenchmarkChecksum4K(b *testing.B) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(6)).Read(data)
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Checksum(data)
	}
}

func BenchmarkXorAggregate512Blocks(b *testing.B) {
	crcs := make([]uint32, 512)
	r := rand.New(rand.NewSource(7))
	for i := range crcs {
		crcs[i] = r.Uint32()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		XorAggregate(crcs)
	}
}
