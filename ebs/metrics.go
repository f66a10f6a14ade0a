package ebs

import (
	"fmt"
	"io"

	"lunasolar/internal/core"
	"lunasolar/internal/rdma"
	"lunasolar/internal/stats"
	"lunasolar/internal/tcpstack"
	"lunasolar/internal/trace"
	"lunasolar/internal/transport"
)

// ExportMetrics folds the cluster's observability state into reg under
// prefix: the trace collector's per-component latency histograms
// ("<prefix>lat/<op>/<sa|fn|bn|ssd|e2e>"), the fabric's drop and per-switch
// telemetry ("<prefix>net/..."), per-compute stack counters and per-path
// INT summaries ("<prefix>compute<i>/..."), every storage server's BN
// stack counters ("<prefix>block<i>/bn/...", "<prefix>chunk<i>/bn/..."),
// and chunk-server operation counters ("<prefix>chunk<i>/..."). All
// sections walk their sources in construction order, so the export is
// deterministic for a fixed seed.
func (c *Cluster) ExportMetrics(reg *stats.Registry, prefix string) {
	c.Collector().RegisterInto(reg, prefix+"lat/")
	c.Fabric.RegisterInto(reg, prefix+"net/")
	for i, cs := range c.computes {
		exportStack(reg, fmt.Sprintf("%scompute%d/", prefix, i), cs.Stack)
	}
	for i, ss := range c.blocks {
		exportStack(reg, fmt.Sprintf("%sblock%d/bn/", prefix, i), ss.BN)
	}
	for i, ss := range c.chunks {
		base := fmt.Sprintf("%schunk%d/", prefix, i)
		exportStack(reg, base+"bn/", ss.BN)
		w, r, crcErrs, misses := ss.Chunk.Stats()
		reg.AddCounter(base+"writes", w)
		reg.AddCounter(base+"reads", r)
		reg.AddCounter(base+"crc_errors", crcErrs)
		reg.AddCounter(base+"misses", misses)
	}
}

// exportStack exports one transport stack's counters under base.
func exportStack(reg *stats.Registry, base string, st transport.Stack) {
	switch st := st.(type) {
	case *core.Stack:
		st.RegisterInto(reg, base)
	case *rdma.Stack:
		st.RegisterInto(reg, base)
	case *tcpstack.Stack:
		reg.AddCounter(base+"retransmits", st.Retransmits)
		reg.AddCounter(base+"timeouts", st.Timeouts)
		reg.AddCounter(base+"ecn_marks", st.EcnMarks)
	}
}

// wireRecorders attaches per-node flight recorders when the config asks for
// them. Called at the end of New.
func (c *Cluster) wireRecorders() {
	depth := c.cfg.FlightRecorderDepth
	if depth <= 0 {
		return
	}
	for _, cs := range c.computes {
		if st, ok := cs.Stack.(*core.Stack); ok {
			st.SetRecorder(trace.NewRecorder(depth))
		}
	}
	for _, ss := range c.chunks {
		ss.Chunk.SetRecorder(trace.NewRecorder(depth))
	}
}

// DumpFlightRecorders writes every attached recorder's post-mortem listing
// to w, skipping empty ones. Used when a run trips the packet-leak gate or
// a CRC failure surfaces. Returns the number of events dumped.
func (c *Cluster) DumpFlightRecorders(w io.Writer) int {
	total := 0
	for i, cs := range c.computes {
		if st, ok := cs.Stack.(*core.Stack); ok {
			if rec := st.Recorder(); rec.Len() > 0 {
				rec.Dump(w, fmt.Sprintf("compute%d", i))
				total += rec.Len()
			}
		}
	}
	for i, ss := range c.chunks {
		if rec := ss.Chunk.Recorder(); rec.Len() > 0 {
			rec.Dump(w, fmt.Sprintf("chunk%d", i))
			total += rec.Len()
		}
	}
	if c.ctrlPlane != nil {
		if rec := c.ctrlPlane.rec; rec.Len() > 0 {
			rec.Dump(w, "ctrl")
			total += rec.Len()
		}
	}
	return total
}
