package main

import (
	"time"

	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
)

// fabric-bulk: the raw Clos at packet fidelity, no stacks and no storage.
// 1 MiB transfers in 8 KiB jumbo frames run from the compute pod to the
// storage pod on an open-loop schedule in sim time: waves every fbWaveGap,
// one transfer per compute host, at most two per storage host, staggered
// within fbStagger and paced at 8–10 Gb/s, so each wave has finished
// before the next starts and no host link is oversubscribed. Midway, every
// compute host also sends one transfer to a reserved storage host: a
// 16-to-1 incast wave paced to 96% of that host's 25 Gb/s link, so queues
// build and nothing is lost.
const (
	fbBytes      = 1 << 20
	fbChunk      = 8192 // jumbo frames
	fbPaceMin    = 8e9  // wire bits/s per transfer, drawn from [fbPaceMin, fbPaceMax]
	fbPaceMax    = 10e9
	fbWaves      = 640
	fbWaveGap    = 1500 * time.Microsecond
	fbStagger    = 200 * time.Microsecond
	fbMaxPerDst  = 2
	fbIncastPace = 1.5e9
	fbHosts      = 16 // hosts per pod in simnet.DefaultConfig
	fbSetupReps  = 5
)

func fabricBulk(r *round) error {
	var (
		eng  *sim.Engine
		fab  *simnet.Fabric
		bulk *simnet.BulkService
	)
	err := r.setup(fbSetupReps, func() error {
		r.build(func() {
			eng = sim.NewEngine(subSeed(r.seed, 1))
			fab = simnet.New(eng, simnet.DefaultConfig())
			bulk = simnet.NewBulkService(fab)
		})
		startGenerator(eng, fab, bulk, sim.NewRand(subSeed(r.seed, 2)))
		return nil
	})
	if err != nil {
		return err
	}

	snapshot := func() counters {
		m := counters{"sim.events": float64(eng.Processed())}
		fabricCounters(m, fab)
		return m
	}
	before := snapshot()
	r.timed(func() { r.drive(eng, eng.RunFor, snapshot) })
	r.sim.merge(delta(snapshot(), before))

	r.verify(func() {
		r.attempted = int64(bulk.Started())
		want := int64(fbWaves*fbHosts + fbHosts)
		r.check(r.attempted == want, "fabric-bulk: generator started %d of %d transfers", r.attempted, want)
		seen := make(map[uint64]bool, r.attempted)
		for _, c := range bulk.Completions() {
			r.check(c.ID < bulk.Started() && !seen[c.ID], "fabric-bulk: transfer %d completed twice or was never started", c.ID)
			r.check(c.Bytes >= fbBytes, "fabric-bulk: transfer %d delivered %d of %d bytes", c.ID, c.Bytes, fbBytes)
			seen[c.ID] = true
			r.record(c.Lat, nil)
		}
		r.failed = r.attempted - int64(len(seen)) // lost: a dropped fin never completes
		r.check(fab.OutstandingAll() == 0, "fabric-bulk: packet pools unbalanced: %d packets outstanding", fab.OutstandingAll())
	})
	return nil
}

// startGenerator starts the open-loop generator: an event at each wave's
// due time starts that wave's transfers and schedules the next wave. It
// runs in sim time, so it is never late, and draws from rng alone.
func startGenerator(eng *sim.Engine, fab *simnet.Fabric, bulk *simnet.BulkService, rng *sim.Rand) {
	cfg := fab.Config()
	n := cfg.RacksPerPod * cfg.HostsPerRack
	compute := func(i int) *simnet.Host { return fab.Host(0, 0, i/cfg.HostsPerRack, i%cfg.HostsPerRack) }
	storage := func(i int) *simnet.Host { return fab.Host(0, 1, i/cfg.HostsPerRack, i%cfg.HostsPerRack) }
	incastDst := rng.Intn(n)
	var wave func(w int)
	wave = func(w int) {
		at := eng.Now()
		perDst := make([]int, n)
		for _, src := range rng.Perm(n) {
			dst := rng.Intn(n)
			for dst == incastDst || perDst[dst] == fbMaxPerDst {
				dst = rng.Intn(n)
			}
			perDst[dst]++
			t0 := at.Add(time.Duration(rng.Int63n(int64(fbStagger))))
			pace := fbPaceMin + rng.Float64()*(fbPaceMax-fbPaceMin)
			bulk.Transfer(compute(src), storage(dst), fbBytes, fbChunk, pace, t0)
		}
		if w == fbWaves/2 {
			for src := 0; src < n; src++ {
				bulk.Transfer(compute(src), storage(incastDst), fbBytes, fbChunk, fbIncastPace, at)
			}
		}
		if w+1 < fbWaves {
			eng.Schedule(fbWaveGap, func() { wave(w + 1) })
		}
	}
	eng.Schedule(fbWaveGap, func() { wave(0) })
}
