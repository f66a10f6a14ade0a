package rdma

import (
	"time"

	"lunasolar/internal/simnet"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// The RC data path runs allocation-free in steady state, on the pattern
// the Solar stack uses (core/pool.go): every per-packet and per-message
// stage is a package-level function plus a pooled job record, handed to
// the engine through SubmitArg/TransferArg instead of a closure. Free
// lists are plain LIFO slices owned by the stack, so reuse order is
// deterministic for a fixed seed and nothing is shared between engines.

// pktJob carries one packet through the RNIC's per-packet stages — the
// PCIe crossing and the context-cache lookup. Receive jobs hold the
// inbound frame until packetArrived has consumed it; transmit jobs hold
// the PSN to put on the wire.
type pktJob struct {
	q    *qp
	pkt  *simnet.Packet // receive: the inbound frame
	bth  wire.TCPSeg    // receive: its decoded BTH
	psn  uint32         // transmit: the queued packet to send
	then func(any)      // the stage that runs once the context is resident
}

func (s *Stack) getPktJob(q *qp) *pktJob {
	var j *pktJob
	if n := len(s.freePktJobs); n > 0 {
		j = s.freePktJobs[n-1]
		s.freePktJobs[n-1] = nil
		s.freePktJobs = s.freePktJobs[:n-1]
	} else {
		j = &pktJob{}
	}
	j.q = q
	return j
}

func (s *Stack) putPktJob(j *pktJob) {
	*j = pktJob{}
	s.freePktJobs = append(s.freePktJobs, j)
}

// rxCache runs once an inbound frame has crossed PCIe.
//
//lint:hotpath
func rxCache(a any) {
	j := a.(*pktJob)
	j.q.s.touchCache(j, rxArrive)
}

// rxArrive feeds the frame to its QP once the context is resident. The
// QP retains what it keeps (a request's fragment slab) or copies it, so
// the frame is released as soon as packetArrived returns.
//
//lint:hotpath
func rxArrive(a any) {
	j := a.(*pktJob)
	q, pkt, bth := j.q, j.pkt, j.bth
	q.s.putPktJob(j)
	q.packetArrived(bth, pkt.Payload[wire.TCPSegSize:], pkt.Frag, pkt.FragSlab(),
		pkt.ECN == wire.ECNCE, 64-int(pkt.TTL)) // Host.Send seeds TTL=64; switches decrement
	pkt.Release()
}

// ctxFetched completes a context fetch: the context becomes resident and
// the waiting packet proceeds.
//
//lint:hotpath
func ctxFetched(a any) {
	j := a.(*pktJob)
	s := j.q.s
	s.cache.insert(j.q, s.params.QPCacheSize)
	j.then(j)
}

// txPCIe runs once the sending QP's context is resident: the payload
// crosses PCIe (DMA read from registered memory) before the NIC fires.
//
//lint:hotpath
func txPCIe(a any) {
	j := a.(*pktJob)
	q := j.q
	p := q.lookup(j.psn)
	if p == nil {
		q.s.putPktJob(j)
		return
	}
	if data := len(p.pay); q.s.pcie != nil && data > 0 {
		q.s.pcie.TransferArg(2*data, txFire, j)
	} else {
		txFire(j)
	}
}

// txFire puts the queued packet on the wire.
//
//lint:hotpath
func txFire(a any) {
	j := a.(*pktJob)
	q, psn := j.q, j.psn
	q.s.putPktJob(j)
	q.fire(psn)
}

// rpcJob carries one message through the host CPU's per-message charge
// (post WQE, poll CQE): a client request on its way to the QP, or a
// reassembled inbound message on its way up and — for requests — the
// handler's reply on its way back down. The reply callback is bound once
// per record, so the per-RPC path does not allocate.
type rpcJob struct {
	q   *qp
	id  uint64
	req *transport.Message // Call: the caller's request

	// Delivery: the inbound message. A request's envelope is handed to
	// the handler as is; a response only parks its payload in msg.Data.
	msg  transport.Message
	ebs  wire.EBS
	crcs []uint32 // carried one-touch CRCs; the backing is reused

	resp    *transport.Response // the handler's reply
	replyFn func(*transport.Response)
}

func (s *Stack) getRPCJob(q *qp, id uint64) *rpcJob {
	var j *rpcJob
	if n := len(s.freeRPCJobs); n > 0 {
		j = s.freeRPCJobs[n-1]
		s.freeRPCJobs[n-1] = nil
		s.freeRPCJobs = s.freeRPCJobs[:n-1]
	} else {
		j = &rpcJob{}
		j.replyFn = j.reply
	}
	j.q, j.id = q, id
	return j
}

func (s *Stack) putRPCJob(j *rpcJob) {
	j.q, j.req, j.resp = nil, nil, nil
	j.msg = transport.Message{}
	j.crcs = j.crcs[:0]
	s.freeRPCJobs = append(s.freeRPCJobs, j)
}

// rpcPost hands a client request to its QP after the posting charge.
//
//lint:hotpath
func rpcPost(a any) {
	j := a.(*rpcJob)
	q, id, req := j.q, j.id, j.req
	q.s.putRPCJob(j)
	q.sendMessage(id, req.Op, req, nil, nil)
}

// rpcDeliver hands a complete inbound message up after the polling
// charge: requests to the handler, responses to their pending callback.
//
//lint:hotpath
func rpcDeliver(a any) {
	j := a.(*rpcJob)
	s := j.q.s
	var crcs []uint32
	if len(j.crcs) > 0 {
		crcs = j.crcs
	}
	if !isRequest(j.msg.Op) {
		if done, ok := s.pending[j.id]; ok {
			delete(s.pending, j.id)
			done(j.response(crcs))
		}
		s.putRPCJob(j)
		return
	}
	if s.handler == nil {
		j.msg.Payload.Release()
		s.putRPCJob(j)
		return
	}
	m := &j.msg
	m.VDisk, m.SegmentID, m.LBA, m.Gen = j.ebs.VDisk, j.ebs.SegmentID, j.ebs.LBA, j.ebs.Gen
	m.Flags = j.ebs.Flags &^ wire.EBSFlagHasCRC
	m.ReadLen = int(j.ebs.BlockLen)
	m.BlockCRCs = crcs
	s.handler(j.q.key.peer, m, j.replyFn)
}

// respBox is a delivered response with room for one carried CRC inline.
type respBox struct {
	resp transport.Response
	crc  [1]uint32
}

// response builds the caller's copy of a delivered response. The caller
// may keep it, so it is allocated: one object per RPC when the response
// carries at most one CRC (a write commit's fold).
func (j *rpcJob) response(crcs []uint32) *transport.Response {
	box := &respBox{}
	r := &box.resp
	if len(crcs) == 1 {
		box.crc[0] = crcs[0]
		r.BlockCRCs = box.crc[:]
	} else if len(crcs) > 1 {
		r.BlockCRCs = append([]uint32(nil), crcs...)
	}
	if j.ebs.Flags&wire.EBSFlagReject != 0 {
		r.Err = transport.ErrNotOwner
	}
	r.Data = j.msg.Data
	r.ServerWall = time.Duration(j.ebs.ServerNS)
	r.SSDTime = time.Duration(j.ebs.SSDNS)
	return r
}

// isRequest reports whether a message type is served by the handler;
// every other type completes a pending call.
func isRequest(msgType uint8) bool {
	return msgType == wire.RPCWriteReq || msgType == wire.RPCReadReq
}

// reply is the handler's reply callback: the response is sent after the
// posting charge.
func (j *rpcJob) reply(resp *transport.Response) {
	j.resp = resp
	j.q.s.cores.SubmitArg(j.q.s.params.PerRPCCPU, rpcRespond, j)
}

// rpcRespond sends the handler's response. The request envelope stays
// valid until here; a request delivered in place passes its frame's slab
// reference on to the response, so a reply that aliases the request's
// bytes (an echo) keeps them alive until it is acknowledged.
//
//lint:hotpath
func rpcRespond(a any) {
	j := a.(*rpcJob)
	q, id, resp, pin := j.q, j.id, j.resp, j.msg.Payload
	q.s.putRPCJob(j)
	q.sendMessage(id, wire.RPCWriteResp, nil, resp, pin)
}

// inMsg is one message under reassembly.
type inMsg struct {
	ebs      wire.EBS
	msgType  uint8
	numPkts  int
	received int
	payload  []byte
	slab     *simnet.Slab // held by a request delivered in place
	crcs     []uint32     // carried one-touch block CRCs, in PSN order
}

func (s *Stack) getInMsg() *inMsg {
	if n := len(s.freeInMsgs); n > 0 {
		m := s.freeInMsgs[n-1]
		s.freeInMsgs[n-1] = nil
		s.freeInMsgs = s.freeInMsgs[:n-1]
		return m
	}
	return &inMsg{}
}

// putInMsg recycles a delivered message record. Its payload and slab
// moved to the delivery; only the CRC backing array is kept.
func (s *Stack) putInMsg(m *inMsg) {
	crcs := m.crcs[:0]
	*m = inMsg{crcs: crcs}
	s.freeInMsgs = append(s.freeInMsgs, m)
}
