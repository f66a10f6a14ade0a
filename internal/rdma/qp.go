package rdma

import (
	"errors"
	"time"

	"lunasolar/internal/cc"
	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// pktHdrSize is the fixed header of every RC data packet: BTH (reusing the
// 20-byte segment header layout: ports = QPNs, Seq = PSN, Ack = cumulative
// PSN) + RPC header + EBS header.
const pktHdrSize = wire.TCPSegSize + wire.RPCSize + wire.EBSSize

// outPkt is one unacknowledged data packet, kept scattered: the RPC+EBS
// header image lives in a small pooled prefix encoded once at queue time,
// the chunk is referenced through a slab (shared with the message payload
// in zero-copy mode, a pooled deep copy behind the copy-path hatch). Every
// (re)transmission builds its own frame — BTH + header copy + fragment —
// so nothing the pool reclaims is ever shared with an in-flight frame.
type outPkt struct {
	psn    uint32
	hdr    []byte       // pooled RPC+EBS header image (wire.HeadersSize)
	pay    []byte       // chunk bytes; subrange of slab
	slab   *simnet.Slab // reference held until the packet is acknowledged
	sentAt sim.Time     // NIC fire time of the latest transmission
	retxed bool         // Karn: retransmitted PSNs give no delay samples
}

// qp is one reliable-connection queue pair: go-back-N over PSNs.
type qp struct {
	s   *Stack
	key qpKey

	// Sender.
	sndQueue []outPkt // [acked... inflight... unsent]; index 0 has psn sndUna
	sndUna   uint32
	sndNxt   uint32 // next psn to (re)transmit; within queue bounds
	sndMax   uint32 // one past the highest psn ever transmitted (>= sndNxt)
	nextPSN  uint32 // psn for the next freshly built packet
	rtt      *transport.RTT
	retx     transport.Retransmitter

	samplePSN   uint32
	sampleAt    sim.Time
	sampleValid bool

	// Congestion control: the pluggable controller bounds inflight through
	// Window() and, for rate-based kinds, paces transmissions through the
	// pacer. The default static kind reproduces the old hardware window.
	ctrl  cc.Controller
	pacer cc.Pacer

	// Receiver.
	expectPSN uint32
	nakSent   bool // one NAK per gap (RC behaviour), cleared on in-order
	assembler map[uint64]*inMsg
	rxHops    uint8 // fabric hops data packets crossed, echoed on acks
	lastCNP   sim.Time

	lastRewind sim.Time // rate-limits go-back-N to once per RTT

	// The QP's resident copies in the NIC context cache, in list order.
	ctxFirst, ctxLast *ctxNode
}

func newQP(s *Stack, k qpKey) *qp {
	q := &qp{
		s:         s,
		key:       k,
		rtt:       transport.NewRTT(s.params.MinRTO, s.params.MaxRTO),
		assembler: map[uint64]*inMsg{},
		ctrl:      s.newController(),
	}
	q.retx.Init(s.eng, q.rtt, -1, qpRTOExpired, q)
	q.pacer.Init(s.eng, qpPacerFire, q)
	return q
}

// qpPacerFire resumes the transmit loop when the pacing gap elapses.
func qpPacerFire(a any) { a.(*qp).pump() }

func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// sendMessage segments one RPC message into MTU packets and queues them.
// Each packet's RPC+EBS header image is encoded once into a pooled prefix;
// the chunk is attached by reference (zero-copy) or as one pooled copy
// (the copy-path hatch). When the caller supplied per-block one-touch CRCs
// and the chunking aligns with them — MTU == BlockSize for data, or a single
// header-only packet carrying a fold — each packet's EBS header carries
// its block's CRC, flagged with EBSFlagHasCRC. pin, when non-nil, is a
// slab reference the caller hands over (a response pins its request's
// bytes): a zero-copy payload's packets hold it in place of a wrapper,
// and otherwise it is released here.
func (q *qp) sendMessage(id uint64, op uint8, req *transport.Message, resp *transport.Response, pin *simnet.Slab) {
	var payload []byte
	var crcs []uint32
	var paySlab *simnet.Slab
	ebs := wire.EBS{Version: wire.EBSVersion}
	if req != nil {
		payload = req.Data
		crcs = req.BlockCRCs
		paySlab = req.Payload
		ebs.Op = op
		ebs.VDisk = req.VDisk
		ebs.SegmentID = req.SegmentID
		ebs.LBA = req.LBA
		ebs.Gen = req.Gen
		ebs.Flags = req.Flags &^ wire.EBSFlagHasCRC
		ebs.BlockLen = uint32(req.ReadLen)
	} else {
		payload = resp.Data
		crcs = resp.BlockCRCs
		ebs.ServerNS = uint32(resp.ServerWall.Nanoseconds())
		ebs.SSDNS = uint32(resp.SSDTime.Nanoseconds())
		if resp.Err != nil && errors.Is(resp.Err, transport.ErrNotOwner) {
			// Ownership rejection survives the wire as a header flag;
			// the client side rebuilds transport.ErrNotOwner from it.
			ebs.Flags = wire.EBSFlagReject
		}
	}
	mtu := q.s.params.MTU
	numPkts := (len(payload) + mtu - 1) / mtu
	if numPkts == 0 {
		numPkts = 1
	}
	if len(crcs) != numPkts || (len(payload) > 0 && mtu != wire.BlockSize) {
		crcs = nil // carriage only when packets and CRC entries correspond 1:1
	}
	// Zero-copy: chunks reference the message payload through one shared
	// slab (the caller's, when it already has one) instead of being copied.
	var ioSlab *simnet.Slab
	if simnet.ZeroCopy() && len(payload) > 0 {
		switch {
		case paySlab != nil:
			ioSlab = paySlab.Retain()
		case pin != nil:
			ioSlab, pin = pin, nil
		default:
			ioSlab = q.s.pool.WrapSlab(payload)
		}
	}
	baseFlags := ebs.Flags
	for i := 0; i < numPkts; i++ {
		lo := i * mtu
		hi := lo + mtu
		if hi > len(payload) {
			hi = len(payload)
		}
		chunk := payload[lo:hi]
		ebs.Flags = baseFlags
		ebs.BlockCRC = 0
		if crcs != nil {
			ebs.BlockCRC = crcs[i]
			ebs.Flags |= wire.EBSFlagHasCRC
		}
		rpc := wire.RPC{RPCID: id, PktID: uint16(i), NumPkts: uint16(numPkts), MsgType: op}
		if resp != nil {
			rpc.MsgType = wire.RPCWriteResp
		}
		p := outPkt{psn: q.nextPSN, hdr: q.s.pool.GetBuf(wire.HeadersSize)}
		if err := wire.EncodeHeaders(p.hdr, &rpc, &ebs); err != nil {
			panic(err)
		}
		if len(chunk) > 0 {
			if ioSlab != nil {
				p.slab = ioSlab.Retain()
				p.pay = chunk
			} else {
				p.slab = q.s.pool.GetSlab(len(chunk))
				p.pay = p.slab.Bytes()
				copy(p.pay, chunk)
				q.s.pool.CountCopy(len(chunk))
			}
		}
		q.sndQueue = append(q.sndQueue, p)
		q.nextPSN++
	}
	if ioSlab != nil {
		ioSlab.Release()
	}
	if pin != nil {
		pin.Release()
	}
	q.pump()
}

func (q *qp) inflight() int { return int(q.sndNxt - q.sndUna) }

// pump transmits packets while the controller's window — and, for
// rate-based controllers, its pacing budget — allows. With the default
// static controller the window is WindowPkts×MTU and Rate() is 0, which
// reduces to the old fixed-window loop exactly.
func (q *qp) pump() {
	winPkts := q.ctrl.Window() / q.s.params.MTU
	if winPkts < 1 {
		winPkts = 1
	}
	for q.inflight() < winPkts {
		idx := int(q.sndNxt - q.sndUna)
		if idx >= len(q.sndQueue) {
			break
		}
		if rate := q.ctrl.Rate(); rate > 0 {
			now := q.s.eng.Now()
			if !q.pacer.Ready(now) {
				q.pacer.Arm(now)
				break
			}
			q.pacer.Charge(now, pktHdrSize+len(q.sndQueue[idx].pay), rate)
		}
		psn := q.sndQueue[idx].psn
		if !q.sampleValid {
			q.samplePSN = psn + 1
			q.sampleAt = q.s.eng.Now()
			q.sampleValid = true
		}
		q.transmit(psn)
		q.sndNxt++
		if seqLT(q.sndMax, q.sndNxt) {
			q.sndMax = q.sndNxt
		}
	}
	if q.inflight() > 0 && !q.retx.Active() {
		q.retx.Arm()
	}
}

// lookup returns the queued packet holding psn, or nil when a cumulative
// ack already retired it.
func (q *qp) lookup(psn uint32) *outPkt {
	idx := int(int32(psn - q.sndUna))
	if idx < 0 || idx >= len(q.sndQueue) {
		return nil
	}
	return &q.sndQueue[idx]
}

// transmit sends the queued packet holding psn, paying cache and PCIe
// costs (txPCIe, txFire). The frame is built only when the NIC actually
// fires: a cumulative ack racing the cache/PCIe crossing may retire the
// PSN first, in which case nothing goes out — an RNIC never replays
// acknowledged PSNs, and the packet's pooled header and payload reference
// are already reclaimed.
func (q *qp) transmit(psn uint32) {
	j := q.s.getPktJob(q)
	j.psn = psn
	q.s.touchCache(j, txPCIe)
}

// fire builds and sends the frame for the queued packet holding psn.
//
//lint:hotpath
func (q *qp) fire(psn uint32) {
	p := q.lookup(psn)
	if p == nil {
		return
	}
	bth := wire.TCPSeg{
		SrcPort: q.key.localQPN,
		DstPort: q.key.remoteQPN,
		Seq:     psn,
		Ack:     q.expectPSN,
		Flags:   wire.TCPFlagACK,
	}
	// Every transmission builds its own frame: BTH and header image are
	// private to the frame, the chunk rides as a refcounted fragment —
	// the RNIC's gather DMA from registered memory.
	pkt := q.s.pool.Get(pktHdrSize)
	if err := bth.Encode(pkt.Payload); err != nil {
		panic(err)
	}
	copy(pkt.Payload[wire.TCPSegSize:], p.hdr)
	if p.slab != nil {
		pkt.AttachFrag(p.slab, p.pay)
	}
	pkt.Dst = q.key.peer
	pkt.Proto = Proto
	pkt.SrcPort = q.key.localQPN
	pkt.DstPort = q.key.remoteQPN
	pkt.Overhead = simnet.EthOverhead + wire.IPv4Size
	pkt.SentAt = q.s.eng.Now()
	if q.s.params.CC == cc.KindDCQCN {
		// DCQCN data is ECN-capable: switches CE-mark instead of only
		// tail-dropping, and the receiver answers marks with CNPs.
		pkt.ECN = wire.ECNECT0
	}
	p.sentAt = pkt.SentAt
	if !q.s.host.Send(pkt) {
		pkt.Release()
	}
}

// control sends a pure ACK or NAK frame.
func (q *qp) control(nak bool) {
	var flags uint8 = wire.TCPFlagACK
	if nak {
		flags |= wire.TCPFlagRST
	}
	bth := wire.TCPSeg{
		SrcPort: q.key.localQPN,
		DstPort: q.key.remoteQPN,
		Seq:     q.nextPSN,
		Ack:     q.expectPSN,
		Flags:   flags,
	}
	if q.s.ccEnabled() {
		// Echo the hop count data packets crossed so the sender's
		// controller can scale its delay target (Swift). The field is
		// unused (0) under the static baseline, keeping frames identical.
		bth.Window = uint16(q.rxHops)
	}
	pkt := q.s.pool.Get(wire.TCPSegSize)
	if err := bth.Encode(pkt.Payload); err != nil {
		panic(err)
	}
	pkt.Dst = q.key.peer
	pkt.Proto = Proto
	pkt.SrcPort = q.key.localQPN
	pkt.DstPort = q.key.remoteQPN
	pkt.Overhead = simnet.EthOverhead + wire.IPv4Size
	pkt.SentAt = q.s.eng.Now()
	if !q.s.host.Send(pkt) {
		pkt.Release()
	}
}

// maybeCNP emits one congestion notification toward the data sender,
// rate-limited per QP so a burst of CE-marked arrivals folds into a single
// signal (the RNIC's CNP moderation timer).
func (q *qp) maybeCNP() {
	now := q.s.eng.Now()
	if q.lastCNP != 0 && now.Sub(q.lastCNP) < q.s.params.CNPInterval {
		return
	}
	q.lastCNP = now
	q.s.CNPsSent++
	bth := wire.TCPSeg{
		SrcPort: q.key.localQPN,
		DstPort: q.key.remoteQPN,
		Seq:     q.nextPSN,
		Ack:     q.expectPSN,
		Flags:   wire.TCPFlagACK | wire.TCPFlagECE,
	}
	cnp := wire.CNP{QPN: q.key.remoteQPN, PSN: q.expectPSN, TSNanos: uint64(now)}
	pkt := q.s.pool.Get(wire.TCPSegSize + wire.CNPSize)
	if err := bth.Encode(pkt.Payload); err != nil {
		panic(err)
	}
	if err := cnp.Encode(pkt.Payload[wire.TCPSegSize:]); err != nil {
		panic(err)
	}
	pkt.Dst = q.key.peer
	pkt.Proto = Proto
	pkt.SrcPort = q.key.localQPN
	pkt.DstPort = q.key.remoteQPN
	pkt.Overhead = simnet.EthOverhead + wire.IPv4Size
	pkt.SentAt = now
	if !q.s.host.Send(pkt) {
		pkt.Release()
	}
}

// qpRTOExpired adapts the shared retransmitter's expiry to the QP's
// go-back-N policy.
func qpRTOExpired(a any) { a.(*qp).onRTO() }

// onRTO rewinds to the first unacknowledged PSN (go-back-N).
func (q *qp) onRTO() {
	if q.inflight() == 0 && int(q.sndNxt-q.sndUna) >= len(q.sndQueue) {
		return
	}
	q.retx.RecordTimeout()
	q.ctrl.OnTimeout()
	q.s.host.FluidDisturb(simnet.TriggerLoss)
	q.goBackN()
	q.retx.Arm()
}

func (q *qp) goBackN() {
	// At most one rewind per RTT: in-flight packets beyond the gap keep
	// arriving out of order and would otherwise trigger rewind storms.
	now := q.s.eng.Now()
	srtt := q.rtt.SRTT()
	if srtt <= 0 {
		srtt = q.s.params.MinRTO
	}
	if q.lastRewind != 0 && now.Sub(q.lastRewind) < srtt {
		return
	}
	q.lastRewind = now
	q.s.Retransmits++
	q.sampleValid = false // Karn: retransmitted PSNs give no samples
	for i := 0; i < q.inflight() && i < len(q.sndQueue); i++ {
		q.sndQueue[i].retxed = true
	}
	q.sndNxt = q.sndUna
	q.pump()
}

// releasePkt returns a retired packet's pooled header and payload
// reference; the wipe keeps the recycled slice backing from pinning them.
func (q *qp) releasePkt(p *outPkt) {
	if p.hdr != nil {
		q.s.pool.PutBuf(p.hdr)
	}
	if p.slab != nil {
		p.slab.Release()
	}
	*p = outPkt{}
}

// packetArrived processes one inbound frame on this QP. chunk is the data
// fragment for zero-copy frames (nil for flat or control frames) and frag
// the slab backing it. ce reports a CE mark on the frame; hops is the
// fabric hop count it crossed.
func (q *qp) packetArrived(bth wire.TCPSeg, rest, chunk []byte, frag *simnet.Slab, ce bool, hops int) {
	if bth.Flags&wire.TCPFlagECE != 0 {
		// CNP: a pure congestion signal, carrying no ack or data. Feed the
		// controller and stop — the payload is the wire.CNP frame.
		var cnp wire.CNP
		if cnp.Decode(rest) != nil {
			return
		}
		q.s.CNPsRecv++
		q.s.host.FluidDisturb(simnet.TriggerCNP)
		q.ctrl.OnAck(cc.Feedback{CNP: true})
		q.pump() // rate changed; the pacer re-evaluates
		return
	}
	// Acknowledgment side (cumulative; NAK flagged with RST). Validity is
	// bounded by the highest PSN ever transmitted, not sndNxt: a go-back-N
	// rewind pulls sndNxt below packets the receiver already holds, and its
	// duplicate re-ACKs legitimately acknowledge past the rewound pointer —
	// dropping them would wedge the QP in a retransmit/re-ACK standoff.
	ack := bth.Ack
	if seqLT(q.sndUna, ack) && !seqLT(q.sndMax, ack) {
		now := q.s.eng.Now()
		n := int(ack - q.sndUna)
		acked := 0
		var delay time.Duration
		for i := 0; i < n; i++ {
			p := &q.sndQueue[i]
			acked += pktHdrSize + len(p.pay)
			if !p.retxed && p.sentAt != 0 {
				delay = now.Sub(p.sentAt) // newest retired clean sample wins
			}
			q.releasePkt(p)
		}
		// Slide the survivors to the front so the queue reuses its
		// backing array instead of walking off its end.
		live := copy(q.sndQueue, q.sndQueue[n:])
		clear(q.sndQueue[live:])
		q.sndQueue = q.sndQueue[:live]
		q.sndUna = ack
		if seqLT(q.sndNxt, ack) {
			q.sndNxt = ack // the ack retired PSNs the rewind meant to resend
		}
		q.retx.RecordAck()
		if q.sampleValid && !seqLT(ack, q.samplePSN) {
			q.rtt.Observe(now.Sub(q.sampleAt))
			q.sampleValid = false
		}
		q.ctrl.OnAck(cc.Feedback{
			RTT:        q.rtt.SRTT(),
			AckedBytes: acked,
			Delay:      delay,
			Hops:       int(bth.Window), // receiver-echoed (0 under static)
		})
		if q.inflight() > 0 || len(q.sndQueue) > 0 {
			q.retx.Arm()
			q.pump()
		} else {
			q.retx.Disarm()
		}
	}
	if bth.Flags&wire.TCPFlagRST != 0 && ack == q.sndUna && q.inflight() > 0 {
		// NAK: receiver saw a gap. Rewind immediately.
		q.s.host.FluidDisturb(simnet.TriggerNAK)
		q.ctrl.OnLoss()
		q.goBackN()
	}

	if len(rest) == 0 {
		return
	}
	// Data side: record congestion state for the feedback the acks carry.
	if q.s.ccEnabled() {
		q.rxHops = uint8(hops)
		if ce && q.s.params.CC == cc.KindDCQCN {
			q.maybeCNP()
		}
	}
	// Strict in-order acceptance (go-back-N receiver).
	if bth.Seq != q.expectPSN {
		if seqLT(q.expectPSN, bth.Seq) {
			if !q.nakSent {
				q.control(true) // one NAK per gap
				q.nakSent = true
			}
		} else {
			q.control(false) // duplicate: re-ACK
		}
		return
	}
	q.expectPSN++
	q.nakSent = false
	q.control(false)

	var rpc wire.RPC
	if err := rpc.Decode(rest); err != nil {
		return
	}
	var ebs wire.EBS
	if err := ebs.Decode(rest[wire.RPCSize:]); err != nil {
		return
	}
	if chunk == nil {
		chunk = rest[wire.RPCSize+wire.EBSSize:]
	}
	m := q.assembler[rpc.RPCID]
	if m == nil {
		m = q.s.getInMsg()
		m.ebs, m.msgType, m.numPkts = ebs, rpc.MsgType, int(rpc.NumPkts)
		q.assembler[rpc.RPCID] = m
	}
	if frag != nil && m.numPkts == 1 && isRequest(m.msgType) {
		// A single-frame request is delivered in place: the envelope
		// holds a reference to the frame's slab until the reply is sent,
		// so the handler reads the sender's bytes with no copy.
		m.payload = chunk
		m.slab = frag.Retain()
	} else {
		// Everything else is reassembled: chunks of a multi-packet
		// message must land contiguously, and a response outlives its
		// frames in the caller's hands. The buffer is sized once from the
		// first chunk (senders cut MTU-sized chunks); this copy is counted.
		if m.payload == nil && m.numPkts > 1 {
			m.payload = make([]byte, 0, m.numPkts*len(chunk))
		}
		m.payload = append(m.payload, chunk...)
		if len(chunk) > 0 {
			q.s.pool.CountCopy(len(chunk))
		}
	}
	// Carried one-touch CRCs arrive in PSN order (strict in-order receiver);
	// the set is usable only if every packet of the message carried one.
	if ebs.Flags&wire.EBSFlagHasCRC != 0 {
		m.crcs = append(m.crcs, ebs.BlockCRC)
	}
	m.received++
	if m.received == m.numPkts {
		delete(q.assembler, rpc.RPCID)
		q.s.deliver(q, rpc.RPCID, m)
		q.s.putInMsg(m)
	}
}
