// Package crc holds the CRC32 machinery EBS relies on for end-to-end data
// integrity. The checksum itself is the standard library's Castagnoli
// (CRC-32C) implementation, which uses the CPU's CRC instructions where
// they exist; this package adds the parts the paper's design needs on top
// of it — the GF(2) combine operators and the XOR aggregation — built on
// two properties Solar exploits:
//
//  1. A "raw" (zero-init, no final inversion) CRC32 is linear over GF(2):
//     Raw(a XOR b) == Raw(a) XOR Raw(b) for equal-length inputs. Solar's
//     software integrity check verifies only the XOR-aggregate of the
//     per-block CRCs computed by the FPGA (§4.5, "CRC aggregation"),
//     catching FPGA bit flips at a fraction of full software CRC cost.
//  2. Combine folds the CRC of a concatenation from the CRCs of its parts,
//     so a segment-level expected CRC can be maintained incrementally.
//
// The polynomial is Castagnoli (CRC-32C), as used by storage systems (iSCSI,
// ext4, NVMe).
package crc

import "hash/crc32"

// Poly is the reversed Castagnoli polynomial.
const Poly = crc32.Castagnoli

// table returns the stdlib's Castagnoli table. MakeTable builds it (and
// the hardware path's folding tables) on first use only, so programs that
// never checksum never pay for them.
func table() *crc32.Table { return crc32.MakeTable(crc32.Castagnoli) }

// Checksum returns the standard CRC-32C of data (init 0xFFFFFFFF, final
// inversion), matching hash/crc32.Checksum(data, Castagnoli).
func Checksum(data []byte) uint32 {
	return crc32.Update(0, table(), data)
}

// Update continues a standard CRC-32C from a previous Checksum result.
func Update(crc uint32, data []byte) uint32 {
	return crc32.Update(crc, table(), data)
}

// Raw returns the linear CRC-32C of data: zero initial state and no final
// inversion. For equal-length blocks, Raw(a⊕b) == Raw(a)⊕Raw(b); this is
// the form the FPGA CRC engine emits per block and the CPU aggregates.
func Raw(data []byte) uint32 {
	return RawUpdate(0, data)
}

// RawUpdate continues a raw CRC from a previous Raw result. The stdlib
// form inverts the state on the way in and out; undoing both inversions
// leaves the raw register.
func RawUpdate(crc uint32, data []byte) uint32 {
	return ^crc32.Update(^crc, table(), data)
}

// gf2MatTimes multiplies matrix m by vector v over GF(2).
func gf2MatTimes(m *[32]uint32, v uint32) uint32 {
	var sum uint32
	for i := 0; v != 0; i, v = i+1, v>>1 {
		if v&1 != 0 {
			sum ^= m[i]
		}
	}
	return sum
}

// gf2MatSquare sets sq = m·m over GF(2).
func gf2MatSquare(sq, m *[32]uint32) {
	for i := 0; i < 32; i++ {
		sq[i] = gf2MatTimes(m, m[i])
	}
}

// gf2MatMul sets dst = a·b over GF(2). Column i of the product is a applied
// to column i of b (m[i] holds the image of basis vector e_i).
func gf2MatMul(dst, a, b *[32]uint32) {
	for i := 0; i < 32; i++ {
		dst[i] = gf2MatTimes(a, b[i])
	}
}

// CombineOp is the GF(2) shift operator for a fixed appended length,
// flattened into a single 32×32 matrix. Building it costs the same
// squaring chain as one Combine call; applying it afterwards is a single
// matrix–vector product. The data path memoizes the operator for the fixed
// 4 KiB block length so per-block CRC folding at the blockserver/DPU
// boundary never rebuilds the matrices.
//
// The operator is valid for both CRC forms: the raw (zero-init, linear)
// CRC satisfies Raw(A||B) = M_lenB·Raw(A) ⊕ Raw(B) directly, and the zlib
// construction makes the same identity hold for the inverted Checksum form.
type CombineOp struct {
	mat  [32]uint32
	lenB int64
}

// MakeCombineOp precomputes the combine operator for appending lenB bytes.
func MakeCombineOp(lenB int64) CombineOp {
	op := CombineOp{lenB: lenB}
	for i := 0; i < 32; i++ {
		op.mat[i] = 1 << i // identity: lenB <= 0 appends nothing
	}
	if lenB <= 0 {
		return op
	}
	var even, odd, tmp [32]uint32
	shiftSeed(&even, &odd)
	n := lenB
	for {
		gf2MatSquare(&even, &odd)
		if n&1 != 0 {
			gf2MatMul(&tmp, &even, &op.mat)
			op.mat = tmp
		}
		n >>= 1
		if n == 0 {
			break
		}
		gf2MatSquare(&odd, &even)
		if n&1 != 0 {
			gf2MatMul(&tmp, &odd, &op.mat)
			op.mat = tmp
		}
		n >>= 1
		if n == 0 {
			break
		}
	}
	return op
}

// Len returns the appended length the operator was built for.
func (op *CombineOp) Len() int64 { return op.lenB }

// Combine folds crcB (over lenB bytes) onto crcA with one matrix–vector
// product: CRC(A||B) from CRC(A) and CRC(B).
func (op *CombineOp) Combine(crcA, crcB uint32) uint32 {
	return gf2MatTimes(&op.mat, crcA) ^ crcB
}

// blockLen4K is the fixed EBS block length (wire.BlockSize; the literal
// avoids an import cycle) whose combine operator is memoized at init.
const blockLen4K = 4096

var op4K = MakeCombineOp(blockLen4K)

// shiftSeed initialises the squaring chain: even = operator for two zero
// bits, odd = operator for four zero bits (zlib crc32_combine seeding).
func shiftSeed(even, odd *[32]uint32) {
	// odd = operator for one zero bit.
	odd[0] = Poly
	row := uint32(1)
	for i := 1; i < 32; i++ {
		odd[i] = row
		row <<= 1
	}
	gf2MatSquare(even, odd)
	gf2MatSquare(odd, even)
}

// Combine returns the CRC of the concatenation A||B given crcA =
// Checksum(A), crcB = Checksum(B), and lenB = len(B). This is the zlib
// crc32_combine construction specialised to CRC-32C. The fixed 4 KiB block
// length hits the memoized operator and skips the squaring chain entirely.
func Combine(crcA, crcB uint32, lenB int64) uint32 {
	if lenB <= 0 {
		return crcA
	}
	if lenB == blockLen4K {
		return op4K.Combine(crcA, crcB)
	}
	var even, odd [32]uint32
	shiftSeed(&even, &odd)

	// Apply len2 zero bytes to crcA, 3 bits at a time (len*8 bits).
	n := lenB
	for {
		gf2MatSquare(&even, &odd)
		if n&1 != 0 {
			crcA = gf2MatTimes(&even, crcA)
		}
		n >>= 1
		if n == 0 {
			break
		}
		gf2MatSquare(&odd, &even)
		if n&1 != 0 {
			crcA = gf2MatTimes(&odd, crcA)
		}
		n >>= 1
		if n == 0 {
			break
		}
	}
	return crcA ^ crcB
}

// CombineBlocks folds the raw CRCs of consecutive equal-length blocks into
// the raw CRC of their concatenation, reusing one precomputed operator for
// the whole fold (memoized for 4 KiB blocks). An empty slice folds to 0,
// the raw CRC of the empty payload.
func CombineBlocks(crcs []uint32, blockLen int64) uint32 {
	if len(crcs) == 0 {
		return 0
	}
	op := &op4K
	if blockLen != blockLen4K {
		fresh := MakeCombineOp(blockLen)
		op = &fresh
	}
	agg := crcs[0]
	for _, c := range crcs[1:] {
		agg = op.Combine(agg, c)
	}
	return agg
}

// XorAggregate folds per-block raw CRCs into the single value Solar's CPU
// verifies. Blocks must be equal length for the linearity property to make
// the aggregate meaningful.
func XorAggregate(rawCRCs []uint32) uint32 {
	var agg uint32
	for _, c := range rawCRCs {
		agg ^= c
	}
	return agg
}

// XorBlocks XORs equal-length blocks together into dst (for verification in
// tests and the software integrity checker). It panics if lengths differ.
func XorBlocks(dst []byte, blocks ...[]byte) {
	for i := range dst {
		dst[i] = 0
	}
	for _, b := range blocks {
		if len(b) != len(dst) {
			panic("crc: XorBlocks length mismatch")
		}
		for i, v := range b {
			dst[i] ^= v
		}
	}
}

// Aggregator implements Solar's software-side segment integrity check. The
// FPGA reports each block's raw CRC; the host folds them with XOR and
// periodically compares against an expected aggregate computed over the
// XOR of the block payloads. One 4-byte XOR per block replaces a full
// 4 KiB CRC per block on the CPU.
type Aggregator struct {
	agg      uint32
	expected uint32
	blocks   int
}

// AddBlockCRC folds one FPGA-reported raw block CRC into the aggregate.
func (a *Aggregator) AddBlockCRC(raw uint32) {
	a.agg ^= raw
	a.blocks++
}

// AddExpected folds the trusted raw CRC of the block's true payload into
// the expected aggregate. In production the expected value arrives from the
// block server's metadata; tests compute it directly.
func (a *Aggregator) AddExpected(raw uint32) {
	a.expected ^= raw
}

// Blocks returns how many block CRCs were folded in.
func (a *Aggregator) Blocks() int { return a.blocks }

// Verify reports whether the FPGA-reported aggregate matches the expected
// aggregate. A false result means at least one block was corrupted by the
// hardware (or an odd number of identical corruptions occurred — the same
// residual risk the paper accepts).
func (a *Aggregator) Verify() bool { return a.agg == a.expected }

// Reset clears the aggregator for the next segment.
func (a *Aggregator) Reset() {
	a.agg = 0
	a.expected = 0
	a.blocks = 0
}
