// Package blockserver implements the storage cluster's block servers: the
// FN-facing services that own segments, aggregate and sequentialize block
// writes, fan each write out to three chunk-server replicas over the
// backend network, and serve reads from the primary replica (Fig. 2, steps
// 2–4). Residence time and the media portion are measured here and returned
// in-band for the Fig. 6 latency attribution.
package blockserver

import (
	"fmt"
	"time"

	"lunasolar/internal/crc"
	"lunasolar/internal/sim"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// Replicas is the replication factor ("multiple (e.g., 3) copies").
const Replicas = 3

// Params is the block-server cost model.
type Params struct {
	PerRPCCPU   time.Duration // request parse, commit bookkeeping
	PerBlockCPU time.Duration // per-block log append / index update
}

// DefaultParams returns the standard cost model.
func DefaultParams() Params {
	return Params{
		PerRPCCPU:   2 * time.Microsecond,
		PerBlockCPU: 400 * time.Nanosecond,
	}
}

// Server is one block server.
type Server struct {
	eng      *sim.Engine
	name     string
	cores    *sim.Server
	bn       transport.Client
	replicas []uint32 // chunk-server addresses, len >= Replicas
	params   Params

	// released maps segments this server has handed to another owner
	// (live migration cutover) to the new owner's address. Requests for a
	// released segment are rejected with transport.ErrNotOwner so the
	// storage agent re-resolves and retries. Segments absent from the map
	// are served normally — block servers are permissive by default, so
	// clusters that never migrate behave exactly as before.
	released map[uint64]uint32

	// replicaOverride pins a segment's chunk replica set, replacing the
	// deterministic segmentID-derived set — installed by the control
	// plane when a chunk-server drain rebuilds a replica elsewhere.
	replicaOverride map[uint64][]uint32

	writes, reads     uint64
	rejects           uint64 // not-owner rejections after a cutover
	crcFoldMismatches uint64

	freeJobs []*rpcJob
}

// New creates a block server serving requests from fn, replicating over bn
// to the given chunk servers. fn's handler is installed here.
func New(eng *sim.Engine, name string, fn transport.Stack, bn transport.Client, replicas []uint32, cores *sim.Server, params Params) (*Server, error) {
	if len(replicas) < Replicas {
		return nil, fmt.Errorf("blockserver %s: need >= %d chunk replicas, got %d", name, Replicas, len(replicas))
	}
	s := &Server{
		eng:      eng,
		name:     name,
		cores:    cores,
		bn:       bn,
		replicas: replicas,
		params:   params,
	}
	fn.SetHandler(s.Handle)
	return s, nil
}

// Name returns the server's diagnostic name.
func (s *Server) Name() string { return s.name }

// Stats returns served write and read RPC counts.
func (s *Server) Stats() (writes, reads uint64) { return s.writes, s.reads }

// CRCFoldMismatches returns how many replica commits reported a CRC fold
// that disagreed with the request's one-touch metadata.
func (s *Server) CRCFoldMismatches() uint64 { return s.crcFoldMismatches }

// Rejects returns how many requests were turned away with ErrNotOwner
// after a segment cutover (each one is a client retry).
func (s *Server) Rejects() uint64 { return s.rejects }

// appendReplicaSet appends the chunk servers for a segment to dst
// (deterministic by segment ID so all writers agree), unless the control
// plane pinned an override during a drain.
func (s *Server) appendReplicaSet(dst []uint32, segmentID uint64) []uint32 {
	if set, ok := s.replicaOverride[segmentID]; ok {
		return append(dst, set...)
	}
	base := int(segmentID) % len(s.replicas)
	for i := 0; i < Replicas; i++ {
		dst = append(dst, s.replicas[(base+i)%len(s.replicas)])
	}
	return dst
}

// replicaSet returns a fresh copy of a segment's chunk replica set.
func (s *Server) replicaSet(segmentID uint64) []uint32 {
	return s.appendReplicaSet(nil, segmentID)
}

// ReplicaSet exposes the current chunk replica set of a segment to the
// control plane (drain planning).
func (s *Server) ReplicaSet(segmentID uint64) []uint32 { return s.replicaSet(segmentID) }

// SetReplicaSet pins a segment's chunk replica set. The control plane
// calls it at a drain cutover, after the replacement replica has been
// rebuilt; set[0] must be a survivor holding the full segment, since
// reads are served from the primary.
func (s *Server) SetReplicaSet(segmentID uint64, set []uint32) error {
	if len(set) < Replicas {
		return fmt.Errorf("blockserver %s: replica set for segment %d needs >= %d members, got %d",
			s.name, segmentID, Replicas, len(set))
	}
	if s.replicaOverride == nil {
		s.replicaOverride = map[uint64][]uint32{}
	}
	s.replicaOverride[segmentID] = append([]uint32(nil), set...)
	return nil
}

// ReleaseSegment marks a segment as handed to newOwner: every later
// request for it is rejected with transport.ErrNotOwner so in-flight
// clients re-resolve the (generation-bumped) segment table and retry.
func (s *Server) ReleaseSegment(segmentID uint64, newOwner uint32) {
	if s.released == nil {
		s.released = map[uint64]uint32{}
	}
	s.released[segmentID] = newOwner
	delete(s.replicaOverride, segmentID)
}

// AdoptSegment installs a migrated-in segment: clears any stale release
// record (a segment may migrate back) and pins the replica set it arrives
// with, when overridden at the source.
func (s *Server) AdoptSegment(segmentID uint64, set []uint32) error {
	delete(s.released, segmentID)
	if set != nil {
		return s.SetReplicaSet(segmentID, set)
	}
	return nil
}

// rpcJob is one FN request in flight: its dispatch through the per-RPC
// CPU charge and, for a write, the fan-out to the replicas and the commit
// accounting. Records are pooled (LIFO, deterministic reuse) and each
// replica call's completion callback is bound once per record, so a
// replicated write allocates nothing per replica.
type rpcJob struct {
	s     *Server
	t0    sim.Time
	req   *transport.Message
	reply func(*transport.Response)

	set       []uint32 // the write's replica set; the backing is reused
	calls     []*replicaCall
	wantFold  uint32
	checkFold bool
	remaining int
	maxSSD    time.Duration
	firstErr  error
}

// replicaCall is one replica's completion.
type replicaCall struct {
	j     *rpcJob
	chunk uint32
	done  func(*transport.Response)
}

func (s *Server) getJob() *rpcJob {
	if n := len(s.freeJobs); n > 0 {
		j := s.freeJobs[n-1]
		s.freeJobs[n-1] = nil
		s.freeJobs = s.freeJobs[:n-1]
		return j
	}
	return &rpcJob{s: s}
}

func (s *Server) putJob(j *rpcJob) {
	j.req, j.reply, j.firstErr = nil, nil, nil
	j.set = j.set[:0]
	s.freeJobs = append(s.freeJobs, j)
}

// call returns the record's i-th replica call, growing the set on first use.
func (j *rpcJob) call(i int) *replicaCall {
	for len(j.calls) <= i {
		rc := &replicaCall{j: j}
		rc.done = rc.committed
		j.calls = append(j.calls, rc)
	}
	return j.calls[i]
}

// Handle is the FN request handler (exported for tests and for wiring
// through additional dispatch layers).
func (s *Server) Handle(src uint32, req *transport.Message, reply func(*transport.Response)) {
	blocks := (len(req.Data) + wire.BlockSize - 1) / wire.BlockSize
	if req.Op == wire.RPCReadReq {
		blocks = (req.ReadLen + wire.BlockSize - 1) / wire.BlockSize
	}
	cost := s.params.PerRPCCPU + time.Duration(blocks)*s.params.PerBlockCPU
	j := s.getJob()
	j.t0, j.req, j.reply = s.eng.Now(), req, reply
	s.cores.SubmitArg(cost, serve, j)
}

// serve dispatches a request once its CPU charge completes.
func serve(a any) {
	j := a.(*rpcJob)
	s, t0, req, reply := j.s, j.t0, j.req, j.reply
	if newOwner, gone := s.released[req.SegmentID]; gone {
		s.putJob(j)
		s.rejects++
		reply(&transport.Response{Err: fmt.Errorf(
			"blockserver %s: segment %d released to %d: %w",
			s.name, req.SegmentID, newOwner, transport.ErrNotOwner)})
		return
	}
	switch req.Op {
	case wire.RPCWriteReq:
		s.writes++
		s.replicateWrite(j)
	case wire.RPCReadReq:
		s.putJob(j)
		s.reads++
		s.serveRead(t0, req, reply)
	default:
		s.putJob(j)
		reply(&transport.Response{Err: fmt.Errorf("blockserver %s: bad op %d", s.name, req.Op)})
	}
}

// replicateWrite fans the blocks out to all replicas over the BN; the write
// acknowledges when every replica has committed (step 3→4 in Fig. 2).
// Every replica is sent the FN request itself, which stays valid until
// the reply: its payload and slab (which each BN send retains) are shared,
// so the fan-out copies no data.
//
// When the request carries one-touch CRC metadata the commit is
// cross-checked without touching a single payload byte: the per-block list
// is folded once with the memoized 4 KiB GF(2) combine operator, and each
// replica's reported commit fold must match it — catching any metadata
// corruption or desynchronization along the BN path.
func (s *Server) replicateWrite(j *rpcJob) {
	req := j.req
	j.set = s.appendReplicaSet(j.set[:0], req.SegmentID)
	j.remaining = len(j.set)
	j.maxSSD = 0
	j.checkFold = len(req.BlockCRCs) > 0
	j.wantFold = 0
	if j.checkFold {
		j.wantFold = crc.CombineBlocks(req.BlockCRCs, wire.BlockSize)
	}
	for i, chunk := range j.set {
		rc := j.call(i)
		rc.chunk = chunk
		s.bn.Call(chunk, req, rc.done)
	}
}

// committed folds one replica's commit into its write and replies once
// every replica has answered.
func (rc *replicaCall) committed(resp *transport.Response) {
	j := rc.j
	s := j.s
	if j.checkFold && resp.Err == nil && len(resp.BlockCRCs) == 1 && resp.BlockCRCs[0] != j.wantFold {
		s.crcFoldMismatches++
		if j.firstErr == nil {
			j.firstErr = fmt.Errorf("blockserver %s: replica %d commit CRC fold mismatch: got %08x want %08x",
				s.name, rc.chunk, resp.BlockCRCs[0], j.wantFold)
		}
	}
	if resp.Err != nil && j.firstErr == nil {
		j.firstErr = resp.Err
	}
	if resp.SSDTime > j.maxSSD {
		j.maxSSD = resp.SSDTime
	}
	j.remaining--
	if j.remaining > 0 {
		return
	}
	reply := j.reply
	out := &transport.Response{
		Err:        j.firstErr,
		ServerWall: s.eng.Now().Sub(j.t0),
		SSDTime:    j.maxSSD,
	}
	s.putJob(j)
	reply(out)
}

// serveRead fetches the range from the primary replica.
func (s *Server) serveRead(t0 sim.Time, req *transport.Message, reply func(*transport.Response)) {
	primary := s.replicaSet(req.SegmentID)[0]
	msg := *req
	s.bn.Call(primary, &msg, func(resp *transport.Response) {
		reply(&transport.Response{
			Data:       resp.Data,
			BlockCRCs:  resp.BlockCRCs, // stored CRCs ride through to the FN
			Err:        resp.Err,
			ServerWall: s.eng.Now().Sub(t0),
			SSDTime:    resp.SSDTime,
		})
	})
}
