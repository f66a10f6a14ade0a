package chunkserver

import (
	"lunasolar/internal/crc"
	"lunasolar/internal/sim"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// Service exposes a chunk server over a backend-network transport: it
// splits write RPCs into blocks for the store, reassembles read ranges, and
// reports its residence time as the SSD component of the distributed trace.
type Service struct {
	eng *sim.Engine
	cs  *Server

	freeWrites []*replicaWrite
}

// replicaWrite is one BN write request in flight: it counts block commits
// and replies once the last one lands. Records are pooled and their
// per-block completion callback is bound once, so a replica write
// allocates only its stored copy and its reply.
type replicaWrite struct {
	s         *Service
	t0        sim.Time
	reply     func(*transport.Response)
	remaining int
	firstErr  error
	hasFold   bool
	fold      uint32
	done      func(error)
}

// commitReply is a write reply with its one-entry CRC fold inline. The
// BN stack may hold the reply until it is sent, so it is allocated.
type commitReply struct {
	resp transport.Response
	fold [1]uint32
}

func (s *Service) getWrite() *replicaWrite {
	if n := len(s.freeWrites); n > 0 {
		w := s.freeWrites[n-1]
		s.freeWrites[n-1] = nil
		s.freeWrites = s.freeWrites[:n-1]
		return w
	}
	w := &replicaWrite{s: s}
	w.done = w.blockDone
	return w
}

// blockDone folds one block commit into the request.
func (w *replicaWrite) blockDone(err error) {
	if err != nil && w.firstErr == nil {
		w.firstErr = err
	}
	w.remaining--
	if w.remaining > 0 {
		return
	}
	s := w.s
	out := &commitReply{}
	out.resp.Err = w.firstErr
	if w.hasFold {
		out.fold[0] = w.fold
		out.resp.BlockCRCs = out.fold[:]
	}
	out.resp.SSDTime = s.eng.Now().Sub(w.t0)
	reply := w.reply
	w.reply, w.firstErr = nil, nil
	s.freeWrites = append(s.freeWrites, w)
	reply(&out.resp)
}

// NewService installs the chunk server as bn's request handler.
func NewService(eng *sim.Engine, cs *Server, bn transport.Stack) *Service {
	s := &Service{eng: eng, cs: cs}
	bn.SetHandler(s.Handle)
	return s
}

// Handle serves one BN request.
func (s *Service) Handle(src uint32, req *transport.Message, reply func(*transport.Response)) {
	t0 := s.eng.Now()
	switch req.Op {
	case wire.RPCWriteReq:
		n := (len(req.Data) + wire.BlockSize - 1) / wire.BlockSize
		// One-touch CRC: when the request carries the per-block CRCs
		// computed at SA ingress, they become the store's expected values —
		// the device boundary verifies end-to-end against the ingress hash
		// and the service never re-walks the payload. The reply echoes a
		// GF(2) fold of the committed list (one Combine per block, no data
		// bytes touched) for the block server's replica cross-check. The
		// store copies each block before WriteBlock returns, so nothing
		// here outlives the request envelope.
		carried := req.BlockCRCs
		if len(carried) != n {
			carried = nil
		}
		w := s.getWrite()
		w.t0, w.reply, w.remaining = t0, reply, n
		w.hasFold = carried != nil
		if w.hasFold {
			w.fold = crc.CombineBlocks(carried, wire.BlockSize)
		}
		for i := 0; i < n; i++ {
			lo := i * wire.BlockSize
			hi := lo + wire.BlockSize
			if hi > len(req.Data) {
				hi = len(req.Data)
			}
			block := req.Data[lo:hi]
			expect := uint32(0)
			if carried != nil {
				expect = carried[i]
			} else {
				expect = crc.Raw(block)
			}
			s.cs.WriteBlock(req.SegmentID, req.LBA+uint64(lo), req.Gen, block, expect, w.done)
		}
	case wire.RPCReadReq:
		n := (req.ReadLen + wire.BlockSize - 1) / wire.BlockSize
		buf := make([]byte, req.ReadLen)
		// One-touch CRC, read direction: each block's stored CRC rides back
		// with the response, so upstream hops (read-serve framing, the
		// client's commit verify) reuse it instead of re-hashing. The list
		// is attached only when every block's stored bytes exactly fill its
		// slot — a short or missing record would desynchronize CRC and data.
		crcs := make([]uint32, n)
		crcsOK := true
		remaining := n
		var firstErr error
		for i := 0; i < n; i++ {
			lo := i * wire.BlockSize
			i := i
			s.cs.ReadBlock(req.SegmentID, req.LBA+uint64(lo), func(data []byte, rawCRC uint32, err error) {
				if err != nil && firstErr == nil {
					firstErr = err
				}
				end := (i + 1) * wire.BlockSize
				if end > len(buf) {
					end = len(buf)
				}
				copy(buf[i*wire.BlockSize:end], data)
				if err != nil || len(data) != end-i*wire.BlockSize {
					crcsOK = false
				} else {
					crcs[i] = rawCRC
				}
				remaining--
				if remaining == 0 {
					out := crcs
					if !crcsOK {
						out = nil
					}
					reply(&transport.Response{Data: buf, BlockCRCs: out, Err: firstErr, SSDTime: s.eng.Now().Sub(t0)})
				}
			})
		}
	}
}
