package rdma

import (
	"testing"

	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// okResp is a shared empty reply so the handlers below never allocate.
var okResp transport.Response

// writeLoop returns a closed write loop on a two-host rig whose server
// replies with okResp: one Call of n bytes, run to completion.
func writeLoop(t *testing.T, n int) (*pair, func()) {
	t.Helper()
	p := newPair(t, DefaultParams())
	p.server.SetHandler(func(src uint32, req *transport.Message, reply func(*transport.Response)) {
		reply(&okResp)
	})
	msg := &transport.Message{Op: wire.RPCWriteReq, VDisk: 1, SegmentID: 1, Gen: 1, Data: make([]byte, n)}
	completed := 0
	onDone := func(*transport.Response) { completed++ }
	write := func() {
		before := completed
		p.client.Call(p.server.LocalAddr(), msg, onDone)
		p.eng.Run()
		if completed != before+1 {
			t.Fatal("write did not complete")
		}
	}
	for i := 0; i < 64; i++ {
		write() // grow the free lists, maps and caches to steady state
	}
	return p, write
}

// TestWrite4KRoundTripAllocs holds the replicated write's BN hop — Call,
// request frame, delivery to the handler in place, reply frame, response
// delivery, and the ACK for each frame — to one allocation per RPC (the
// response the caller may keep). The four packets allocate nothing.
func TestWrite4KRoundTripAllocs(t *testing.T) {
	p, write := writeLoop(t, wire.BlockSize)
	gets := p.fab.Pool().Gets()
	write()
	if pkts := p.fab.Pool().Gets() - gets; pkts < 4 {
		t.Fatalf("round trip used %d pool objects, want at least its 4 frames", pkts)
	}
	allocs := testing.AllocsPerRun(200, write)
	t.Logf("4 KiB write round trip: %.2f allocs", allocs)
	if allocs > 1 {
		t.Fatalf("steady-state 4 KiB write round trip allocates %.2f objects, want <= 1 (the response)", allocs)
	}
	if n := p.fab.Pool().Outstanding(); n != 0 {
		t.Fatalf("pool reports %d leaked packets or slab references", n)
	}
}

// TestMultiPacketWriteAllocsPerRPC sends a 16-packet write: per-packet
// work (transmit, PCIe, context cache, receive, ACKs) must not allocate,
// leaving the reassembly buffer and the response as the only objects.
func TestMultiPacketWriteAllocsPerRPC(t *testing.T) {
	p, write := writeLoop(t, 16*wire.BlockSize)
	allocs := testing.AllocsPerRun(100, write)
	t.Logf("64 KiB write round trip: %.2f allocs", allocs)
	if allocs > 2 {
		t.Fatalf("steady-state 64 KiB write allocates %.2f objects per RPC, want <= 2 (reassembly buffer, response)", allocs)
	}
	if n := p.fab.Pool().Outstanding(); n != 0 {
		t.Fatalf("pool reports %d leaked packets or slab references", n)
	}
}
