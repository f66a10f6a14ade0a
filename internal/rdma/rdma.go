// Package rdma models an RDMA RC (reliable connection) transport — the
// backend-network stack behind Luna and Solar, and the frontend baseline of
// Figs. 14–15. The protocol machinery is real: per-QP packet sequence
// numbers with go-back-N recovery (the pre-Selective-Repeat RNICs of §3.1),
// cumulative ACKs and NAKs, hardware retransmission timers, and message
// reassembly. Host CPU is charged only per message (posting and polling
// work requests); the packet path is "hardware". The era's scalability
// cliff is modelled as an LRU QP-context cache on the NIC: beyond its
// capacity every packet pays a context-fetch penalty ("the overall
// throughput of the RNIC went down quickly after the number of connections
// was beyond 5,000").
package rdma

import (
	"time"

	"lunasolar/internal/cc"
	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
	"lunasolar/internal/stats"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// Proto is the IP protocol number the fabric demultiplexes RDMA frames on
// (RoCEv2 in production rides UDP/4791; a dedicated protocol number keeps
// host-side demux trivial here).
const Proto = 254

// ListenPort is the well-known service QP number.
const ListenPort = 6010

// Params is the RC model.
type Params struct {
	MTU        int // packet payload (4096)
	WindowPkts int // send window per QP (the inflight bound all controllers inherit)
	MinRTO     time.Duration
	MaxRTO     time.Duration

	PerRPCCPU time.Duration // post WQE + poll CQE per message

	QPCacheSize      int           // NIC connection-context cache
	CacheMissPenalty time.Duration // per packet on context miss

	// CC selects the congestion controller every QP runs. The zero value
	// (cc.KindStatic) is the hardware fixed window — byte-identical to the
	// stack before controllers were pluggable. KindDCQCN marks data
	// packets ECT and reacts to receiver CNPs by pacing; KindSwift reacts
	// to hop-scaled delay by shrinking the window.
	CC cc.Kind

	CNPInterval     time.Duration // min gap between CNPs per QP (DCQCN)
	SwiftBaseTarget time.Duration // Swift base target delay
	SwiftHopScale   time.Duration // Swift extra target per fabric hop
	SwiftNoPacing   bool          // revert Swift to window-only (no Rate-driven pacer)
}

// DefaultParams returns the RC model used in the comparisons.
func DefaultParams() Params {
	return Params{
		MTU:              4096,
		WindowPkts:       32,
		MinRTO:           time.Millisecond,
		MaxRTO:           100 * time.Millisecond,
		PerRPCCPU:        700 * time.Nanosecond,
		QPCacheSize:      5000,
		CacheMissPenalty: 1500 * time.Nanosecond,
		CNPInterval:      50 * time.Microsecond,
		SwiftBaseTarget:  12 * time.Microsecond,
		SwiftHopScale:    3 * time.Microsecond,
	}
}

// Stack is one RDMA endpoint. It implements transport.Stack.
type Stack struct {
	eng    *sim.Engine
	host   *simnet.Host
	cores  *sim.Server
	pcie   *sim.Channel
	params Params

	qps       map[qpKey]*qp
	byPeer    map[uint32]*qp // the client QP toward each peer's service QP
	pending   map[uint64]func(*transport.Response)
	handler   transport.Handler
	ids       transport.IDAlloc
	pool      *simnet.PacketPool
	nextQPN   uint16
	cache     ctxCache
	ctxFetch  *sim.Server // serialized context-fetch engine (miss bandwidth)
	lineBytes float64     // NIC port rate, bytes/s (DCQCN's rate ceiling)

	freePktJobs []*pktJob
	freeRPCJobs []*rpcJob
	freeInMsgs  []*inMsg

	CacheMisses uint64
	Retransmits uint64
	CNPsSent    uint64
	CNPsRecv    uint64
}

type qpKey struct {
	peer      uint32
	localQPN  uint16
	remoteQPN uint16
}

// New attaches an RDMA stack to a host. Pass a mux-managed host by calling
// mux.Handle(rdma.Proto, s.ReceivePacket) instead of letting New own the
// host handler.
func New(eng *sim.Engine, host *simnet.Host, cores *sim.Server, pcie *sim.Channel, params Params) *Stack {
	if params.MTU <= 0 {
		params.MTU = 4096
	}
	if params.WindowPkts <= 0 {
		params.WindowPkts = 32
	}
	if params.CNPInterval <= 0 {
		params.CNPInterval = 50 * time.Microsecond
	}
	if params.SwiftBaseTarget <= 0 {
		params.SwiftBaseTarget = 12 * time.Microsecond
	}
	if params.SwiftHopScale <= 0 {
		params.SwiftHopScale = 3 * time.Microsecond
	}
	s := &Stack{
		eng:      eng,
		host:     host,
		cores:    cores,
		pcie:     pcie,
		params:   params,
		qps:      map[qpKey]*qp{},
		byPeer:   map[uint32]*qp{},
		pending:  map[uint64]func(*transport.Response){},
		nextQPN:  40000,
		ctxFetch: sim.NewServer(eng, "rnic-ctx", 1),
		pool:     host.PacketPool(),
	}
	if ports := host.Ports(); len(ports) > 0 {
		s.lineBytes = ports[0].RateBps() / 8
	}
	if host.Handler == nil {
		host.Handler = s.ReceivePacket
	}
	return s
}

// ccEnabled reports whether a reactive controller (anything beyond the
// static hardware window) is selected.
func (s *Stack) ccEnabled() bool { return s.params.CC != cc.KindStatic }

// newController builds one QP's congestion controller from the stack
// params. Every controller inherits the static baseline's inflight bound
// (WindowPkts × MTU) so the comparison isolates the reaction policy.
func (s *Stack) newController() cc.Controller {
	win := s.params.WindowPkts * s.params.MTU
	switch s.params.CC {
	case cc.KindDCQCN:
		return cc.NewDCQCN(s.params.MTU, win, s.lineBytes)
	case cc.KindSwift:
		sw := cc.NewSwift(s.params.MTU, win, win, s.params.SwiftBaseTarget, s.params.SwiftHopScale, s.lineBytes)
		if s.params.SwiftNoPacing {
			sw.SetPacing(false)
		}
		return sw
	default:
		return cc.NewStatic(win)
	}
}

// Name identifies the stack.
func (s *Stack) Name() string { return "rdma" }

// LocalAddr returns the host's fabric address.
func (s *Stack) LocalAddr() uint32 { return s.host.Addr() }

// SetHandler installs the server-side request handler.
func (s *Stack) SetHandler(h transport.Handler) { s.handler = h }

// QPs returns the number of live queue pairs.
func (s *Stack) QPs() int { return len(s.qps) }

// touchCache runs j.then once j's QP context is resident; a miss first
// fetches it from host memory (evicting the coldest entry). Fetches
// serialize through the RNIC's single context engine, so beyond the cache
// size the fetch bandwidth — not the wire — caps throughput: the §3.1
// cliff. The context becomes resident only once the fetch completes:
// packets arriving for this QP in the meantime miss too and queue behind
// the engine — the thrash regime past the cache size.
func (s *Stack) touchCache(j *pktJob, then func(any)) {
	if s.cache.hit(j.q) {
		then(j)
		return
	}
	s.CacheMisses++
	j.then = then
	s.ctxFetch.SubmitArg(s.params.CacheMissPenalty, ctxFetched, j)
}

// qpTo returns the client QP toward dst's service QP, creating it on
// first use. Only qpTo creates QPs whose remote end is the service QP
// (receive-side QPs face a client's QPN), so byPeer indexes all of them.
func (s *Stack) qpTo(dst uint32) *qp {
	if q := s.byPeer[dst]; q != nil {
		return q
	}
	s.nextQPN++
	k := qpKey{peer: dst, localQPN: s.nextQPN, remoteQPN: ListenPort}
	q := newQP(s, k)
	s.qps[k] = q
	s.byPeer[dst] = q
	return q
}

// Call implements transport.Client.
func (s *Stack) Call(dst uint32, req *transport.Message, done func(*transport.Response)) {
	id := s.ids.Next()
	s.pending[id] = done
	j := s.getRPCJob(s.qpTo(dst), id)
	j.req = req
	s.cores.SubmitArg(s.params.PerRPCCPU, rpcPost, j)
}

// ReceivePacket feeds one inbound frame into the stack. The stack takes
// ownership: the frame is released once its bytes are consumed.
func (s *Stack) ReceivePacket(pkt *simnet.Packet) {
	var bth wire.TCPSeg
	if err := bth.Decode(pkt.Payload); err != nil {
		pkt.Release()
		return
	}
	k := qpKey{peer: pkt.Src, localQPN: bth.DstPort, remoteQPN: bth.SrcPort}
	q := s.qps[k]
	if q == nil {
		if bth.DstPort != ListenPort {
			pkt.Release()
			return // stale frame for a forgotten queue pair
		}
		q = newQP(s, k)
		s.qps[k] = q
	}
	j := s.getPktJob(q)
	j.pkt, j.bth = pkt, bth
	if n := len(pkt.Payload) - wire.TCPSegSize + len(pkt.Frag); s.pcie != nil && n > 0 {
		s.pcie.TransferArg(2*n, rxCache, j)
	} else {
		rxCache(j)
	}
}

// deliver hands a complete message up after the per-message CPU charge
// (see rpcDeliver). The message's payload, slab and carried one-touch CRC
// list (used only when every packet carried one) move to the delivery.
func (s *Stack) deliver(q *qp, rpcID uint64, m *inMsg) {
	j := s.getRPCJob(q, rpcID)
	j.msg.Op, j.msg.Data, j.msg.Payload, j.ebs = m.msgType, m.payload, m.slab, m.ebs
	if len(m.crcs) == m.numPkts {
		j.crcs = append(j.crcs[:0], m.crcs...)
	}
	s.cores.SubmitArg(s.params.PerRPCCPU, rpcDeliver, j)
}

var _ transport.Stack = (*Stack)(nil)

// RegisterInto exports the stack's counters into reg under prefix: live
// queue pairs, NIC context-cache misses, go-back-N rewinds and CNPs sent
// and received.
func (s *Stack) RegisterInto(reg *stats.Registry, prefix string) {
	reg.SetGauge(prefix+"qps", float64(len(s.qps)))
	reg.AddCounter(prefix+"cache_misses", s.CacheMisses)
	reg.AddCounter(prefix+"retransmits", s.Retransmits)
	reg.AddCounter(prefix+"cnps_sent", s.CNPsSent)
	reg.AddCounter(prefix+"cnps_recv", s.CNPsRecv)
}

// CtxUtilization reports the context-fetch engine's busy fraction
// (diagnostics).
func (s *Stack) CtxUtilization() float64 { return s.ctxFetch.Utilization() }

// CtxServed reports completed context fetches (diagnostics).
func (s *Stack) CtxServed() uint64 { return s.ctxFetch.Served() }

// CtxQueue reports fetches waiting behind the context engine (diagnostics).
func (s *Stack) CtxQueue() int { return s.ctxFetch.QueueLen() }
