package main

import (
	"time"

	"lunasolar/ebs"
	"lunasolar/internal/sim"
	"lunasolar/internal/workload"
)

// mixed-failover: Table 2's shape. A Luna cluster, then a Solar cluster,
// each carrying the Fig. 5 size mix (4–128 KiB, R:W 7:3) from a closed loop
// over prefilled volumes through a bounded fault schedule: a 5 ms healthy
// warm-up, three 10 ms episodes of a 25% blackhole in both compute-pod
// spines (each on a different flow hash, healed for 10 ms after), a 10 ms
// storage-pod spine reboot, then no new I/O and a drain.
const (
	mfComputes  = 8
	mfSlots     = 4       // closed-loop slots per volume
	mfSpanBytes = 1 << 20 // bytes of each volume the traffic touches
	mfPrefillIO = 128 << 10
	mfReadFrac  = 0.7

	mfWarmup        = 5 * time.Millisecond
	mfCycles        = 3                     // blackhole episodes, each on a different flow hash
	mfCycle         = 20 * time.Millisecond // one episode: blackhole on for mfBlackholeFor, then healed
	mfBlackholeFor  = 10 * time.Millisecond
	mfRebootAt      = 65 * time.Millisecond
	mfRebootFor     = 10 * time.Millisecond
	mfStopIssuing   = 80 * time.Millisecond
	mfBlackholeFrc  = 0.25
	mfBlackholeSalt = 2424
	mfFaultJitter   = 100 * time.Microsecond
)

func mixedFailover(r *round) error {
	for i, kind := range []ebs.StackKind{ebs.Luna, ebs.Solar} {
		if err := mixedCluster(r, kind, subSeed(r.seed, int64(10+i))); err != nil {
			return err
		}
	}
	return nil
}

// mfConfig is the Table 2 testbed shape: 8 computes and 8 storage servers
// in two 2-rack pods with two spines each.
func mfConfig(kind ebs.StackKind, seed int64) ebs.Config {
	cfg := ebs.DefaultConfig(kind)
	cfg.Fabric.RacksPerPod = 2
	cfg.Fabric.HostsPerRack = 4
	cfg.Fabric.SpinesPerPod = 2
	cfg.Fabric.CoresPerDC = 2
	cfg.ComputeServers = mfComputes
	cfg.BlockServers = 3
	cfg.ChunkServers = 5
	cfg.Seed = seed
	return cfg
}

func mixedCluster(r *round, kind ebs.StackKind, seed int64) error {
	var (
		c   *ebs.Cluster
		vds []*ebs.VDisk
	)
	err := r.setup(1, func() error { // the prefill makes set-up long already
		r.build(func() { c = ebs.New(mfConfig(kind, seed)) })
		for i := 0; i < mfComputes; i++ {
			vd, err := c.Provision(i, mfSpanBytes, ebs.DefaultQoS())
			if err != nil {
				return err
			}
			vds = append(vds, vd)
		}
		// Prefill every byte the reads can touch, one write at a time, so
		// the prefill never congests the fabric and costs the same for
		// every seed.
		prefillErrs := 0
		var fill func(i int, off uint64)
		fill = func(i int, off uint64) {
			if off == mfSpanBytes {
				i, off = i+1, 0
			}
			if i == len(vds) {
				return
			}
			vds[i].Write(off, make([]byte, mfPrefillIO), func(res ebs.IOResult) {
				if res.Err != nil {
					prefillErrs++
				}
				fill(i, off+mfPrefillIO)
			})
		}
		fill(0, 0)
		c.Run()
		r.check(prefillErrs == 0, "mixed-failover %v: %d prefill writes failed", kind, prefillErrs)
		return nil
	})
	if err != nil {
		return err
	}

	rng := sim.NewRand(seed ^ 0x5eed)
	reads, writes := workload.NewReadSizes(rng.Fork()), workload.NewWriteSizes(rng.Fork())
	start := c.Eng.Now()
	stopAt := start.Add(mfStopIssuing)
	// The faults hit the same switches and flows for every seed; the seed
	// moves each fault time by up to mfFaultJitter.
	at := func(d time.Duration) sim.Time { return start.Add(d + time.Duration(rng.Int63n(int64(mfFaultJitter)))) }
	blackhole := func(frac float64, salt uint32) {
		for s := 0; s < c.Config().Fabric.SpinesPerPod; s++ {
			c.Fabric.Spine(0, 0, s).SetBlackhole(frac, salt)
		}
	}
	for k := 0; k < mfCycles; k++ {
		salt := uint32(mfBlackholeSalt + k)
		on := mfWarmup + time.Duration(k)*mfCycle
		c.Eng.At(at(on), func() { blackhole(mfBlackholeFrc, salt) })
		c.Eng.At(at(on+mfBlackholeFor), func() { blackhole(0, salt) })
	}
	c.Eng.At(at(mfRebootAt), func() { c.Fabric.RebootSwitch(c.Fabric.Spine(0, 1, 0), mfRebootFor) })

	var outstanding int64
	var issue func(vd *ebs.VDisk)
	issue = func(vd *ebs.VDisk) {
		if c.Eng.Now() >= stopAt {
			return
		}
		r.attempted++
		outstanding++
		done := func(res ebs.IOResult) {
			outstanding--
			if res.Err != nil {
				r.failed++
			} else {
				r.record(res.Latency, res.Span)
			}
			issue(vd)
		}
		if rng.Bernoulli(mfReadFrac) {
			size := reads.Sample()
			lba := uint64(rng.Int63n(int64(mfSpanBytes-size))) &^ (blockBytes - 1)
			r.issue(func() { vd.Read(lba, size, done) })
		} else {
			size := writes.Sample()
			lba := uint64(rng.Int63n(int64(mfSpanBytes-size))) &^ (blockBytes - 1)
			data := make([]byte, size)
			r.issue(func() { vd.Write(lba, data, done) })
		}
	}

	before := clusterCounters(c)
	r.timed(func() {
		for _, vd := range vds {
			for s := 0; s < mfSlots; s++ {
				issue(vd)
			}
		}
		r.drive(c.Eng, c.RunFor, func() counters { return clusterCounters(c) })
	})
	r.sim.merge(delta(clusterCounters(c), before))
	r.check(outstanding == 0, "mixed-failover %v: %d I/Os neither completed nor failed after the faults healed", kind, outstanding)
	r.check(c.Leaked() == 0, "mixed-failover %v: %d packets leaked", kind, c.Leaked())
	r.check(chunkCRCErrors(c) == 0, "mixed-failover %v: %d chunk-server CRC errors", kind, chunkCRCErrors(c))
	return nil
}
