package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"lunasolar/ebs"
	"lunasolar/internal/sim"
)

// solar-write: the paper's headline path. Solar FN on the DPU, RDMA BN
// with three replicas, encrypted volumes, 4 KiB random writes from a closed
// loop of swComputes×swSlots slots, one planned chunk-server drain a third
// of the way through. Every acknowledged write is read back and compared
// byte for byte.
const (
	blockBytes   = 4096
	swComputes   = 4
	swSlots      = 8  // closed-loop slots per volume
	swSpanBlocks = 64 // blocks in each slot's private LBA range
	swWrites     = 12_000
	swSlotStride = 2 << 20 // one slot range per 2 MiB segment
	swSetupReps  = 5
)

// wslot is one closed-loop writer and its oracle: the key of the last
// acknowledged write to each block of its range (0: never written).
type wslot struct {
	vd     *ebs.VDisk
	base   uint64
	issued int
	keys   [swSpanBlocks]uint64
}

func solarWrite(r *round) error {
	var (
		c   *ebs.Cluster
		cp  *ebs.ControlPlane
		vds []*ebs.VDisk
	)
	err := r.setup(swSetupReps, func() error {
		vds = nil
		cfg := ebs.DefaultConfig(ebs.Solar)
		cfg.ComputeServers = swComputes
		cfg.Encrypted = true
		cfg.Seed = subSeed(r.seed, 1)
		r.build(func() { c = ebs.New(cfg) })
		cp = c.ControlPlane()
		for i := 0; i < swComputes; i++ {
			vd, err := cp.CreateVolume(fmt.Sprintf("solar-write-%d", i), i, "bench", swSlots*swSlotStride, ebs.DefaultQoS())
			if err != nil {
				return err
			}
			vds = append(vds, vd)
		}
		return nil
	})
	if err != nil {
		return err
	}

	rng := sim.NewRand(subSeed(r.seed, 2))
	salt := uint64(subSeed(r.seed, 3))
	drainIdx := rng.Intn(len(c.Chunks()))
	var slots []*wslot
	for _, vd := range vds {
		for s := 0; s < swSlots; s++ {
			slots = append(slots, &wslot{vd: vd, base: uint64(s) * swSlotStride})
		}
	}
	perSlot := swWrites / len(slots)

	var (
		nextKey   uint64
		done      int
		drained   bool
		drainErr  error
		report    ebs.DrainReport
		drainSpan int32
	)
	var issue func(s *wslot)
	issue = func(s *wslot) {
		if s.issued == perSlot {
			return
		}
		s.issued++
		blk := rng.Intn(swSpanBlocks)
		nextKey++
		key := nextKey
		data := make([]byte, blockBytes)
		fillBlock(data, key^salt)
		r.attempted++
		r.issue(func() {
			s.vd.Write(s.base+uint64(blk)*blockBytes, data, func(res ebs.IOResult) {
				done++
				if res.Err != nil {
					r.failed++
				} else {
					s.keys[blk] = key
					r.record(res.Latency, res.Span)
				}
				if done == swWrites/3 {
					drainSpan = r.tr.beginAsync("ctrl.drain")
					drainErr = cp.DrainChunkServer(drainIdx, func(rep ebs.DrainReport) {
						r.tr.end(drainSpan)
						report, drained = rep, true
					})
				}
				issue(s)
			})
		})
	}

	before := clusterCounters(c)
	r.timed(func() {
		for _, s := range slots {
			issue(s)
		}
		r.drive(c.Eng, c.RunFor, func() counters { return clusterCounters(c) })
	})
	r.sim.merge(delta(clusterCounters(c), before))
	r.check(done == swWrites, "solar-write: %d of %d writes completed", done, swWrites)
	r.check(r.failed == 0, "solar-write: %d writes failed", r.failed)
	r.check(drainErr == nil, "solar-write: drain: %v", drainErr)
	r.check(drained, "solar-write: drain of chunk server %d never finished", drainIdx)
	r.check(report.CopyErrors == 0, "solar-write: drain copy errors: %d", report.CopyErrors)
	r.sim["ctrl.drain_ms"] = float64(report.Duration.Nanoseconds()) / 1e6
	r.sim["ctrl.cutover_p99_us"] = float64(cp.CutoverP(0.99).Nanoseconds()) / 1e3
	r.sim["ctrl.blocks_copied"] = float64(report.BlocksCopied)

	// Read every acknowledged block back and compare it with the bytes the
	// oracle regenerates from the write's key.
	r.verify(func() {
		var mismatches, readErrs, checked int
		for _, s := range slots {
			blk := -1
			var next func()
			next = func() {
				for blk++; blk < swSpanBlocks && s.keys[blk] == 0; blk++ {
				}
				if blk == swSpanBlocks {
					return
				}
				b := blk
				s.vd.Read(s.base+uint64(b)*blockBytes, blockBytes, func(res ebs.IOResult) {
					checked++
					want := make([]byte, blockBytes)
					fillBlock(want, s.keys[b]^salt)
					switch {
					case res.Err != nil:
						readErrs++
					case !bytes.Equal(res.Data, want):
						mismatches++
					}
					next()
				})
			}
			next()
		}
		c.Run()
		r.check(checked > 0, "solar-write: nothing to read back")
		r.check(readErrs == 0, "solar-write: %d read-back errors", readErrs)
		r.check(mismatches == 0, "solar-write: %d of %d blocks read back wrong", mismatches, checked)
		r.sim["verify.blocks"] = float64(checked)
	})
	r.check(c.Leaked() == 0, "solar-write: %d packets leaked", c.Leaked())
	r.check(chunkCRCErrors(c) == 0, "solar-write: %d chunk-server CRC errors", chunkCRCErrors(c))
	return nil
}

// fillBlock fills b with the splitmix64 stream of key: the bytes of a
// write are a function of its key alone, so the oracle stores keys only.
func fillBlock(b []byte, key uint64) {
	x := key
	for i := 0; i+8 <= len(b); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(b[i:], z^(z>>31))
	}
}

// subSeed derives the seed of one independent random stream of a workload.
func subSeed(seed int64, stream int64) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	return int64(x & (1<<63 - 1))
}
