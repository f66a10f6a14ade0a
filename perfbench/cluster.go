package main

import (
	"lunasolar/ebs"
	"lunasolar/internal/core"
	"lunasolar/internal/simnet"
	"lunasolar/internal/tcpstack"
	"lunasolar/internal/transport"
)

// clusterCounters snapshots every public counter of an EBS cluster. All of
// them are cumulative except the fabric's queue high-water mark.
func clusterCounters(c *ebs.Cluster) counters {
	m := counters{}
	for _, eng := range c.Engines() {
		m.add("sim.events", float64(eng.Processed()))
	}
	for i := 0; i < c.Computes(); i++ {
		stackCounters(m, c.Compute(i).Stack)
	}
	for _, b := range c.Blocks() {
		stackCounters(m, b.FN)
		w, rd := b.Block.Stats()
		m.add("blockserver.ops", float64(w+rd))
	}
	for _, ch := range c.Chunks() {
		w, rd, crcErrs, _ := ch.Chunk.Stats()
		m.add("chunkserver.ops", float64(w+rd))
		m.add("chunkserver.crc_errors", float64(crcErrs))
	}
	fabricCounters(m, c.Fabric)
	return m
}

// stackCounters adds the counters of whichever frontend stack st is.
func stackCounters(m counters, st transport.Stack) {
	switch s := st.(type) {
	case *core.Stack:
		m.add("core.probes", float64(s.Probes))
		m.add("core.retransmits", float64(s.Retransmits))
		m.add("core.path_failovers", float64(s.PathFailovers))
	case *tcpstack.Stack:
		m.add("tcpstack.retransmits", float64(s.Retransmits))
		m.add("tcpstack.timeouts", float64(s.Timeouts))
	}
}

// fabricCounters adds the fabric's wire, drop, copy and queue counters.
func fabricCounters(m counters, f *simnet.Fabric) {
	for _, h := range f.Hosts() {
		for _, p := range h.Ports() {
			m.add("simnet.wire_bytes", float64(p.TxBytes()))
		}
	}
	m.add("simnet.drops", float64(f.TotalDrops()))
	m.add("simnet.copies", float64(f.Pool().Copies()))
	m["simnet.max_queue_bytes"] = float64(f.MaxQueuedBytes())
}

// chunkCRCErrors sums the chunk servers' CRC rejections.
func chunkCRCErrors(c *ebs.Cluster) uint64 {
	var n uint64
	for _, ch := range c.Chunks() {
		_, _, crcErrs, _ := ch.Chunk.Stats()
		n += crcErrs
	}
	return n
}
