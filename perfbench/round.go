package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"lunasolar/internal/sim"
	"lunasolar/internal/trace"
)

// driveSlice is the simulated time one drive span advances. The engines
// are driven in slices so the benchmark can sample them between slices;
// slicing never changes the event order.
const driveSlice = time.Millisecond

// counters are named simulator counters a round records; they are
// functions of the seed alone.
type counters map[string]float64

// round is one complete execution of a workload: set-up, the timed phase,
// and verification. Every round of a run uses the same seed, so its
// simulated outputs must repeat exactly.
type round struct {
	seed int64
	tr   *tracer // nil unless this round is traced

	setupHost, timedHost time.Duration
	buildHost            time.Duration // constructors only, inside set-up
	issueHost            time.Duration // calls into the system, traced rounds only
	issues               int
	mallocs              uint64
	gcCycles             uint32
	heapLive             uint64

	attempted, failed int64
	lats              []time.Duration // sim latency of each completed timed operation
	parts             [trace.SSD + 1][]time.Duration
	sim               counters // deterministic: timed-phase deltas and high-water marks
	summary           summary  // set once the round has finished
	checks            []string // failed correctness checks
}

func newRound(seed int64, tr *tracer) *round {
	return &round{seed: seed, tr: tr, sim: counters{}}
}

// setup runs fn, which builds the system, reps times and keeps the last
// build. The median rep's host time is the set-up cost: repeating a cheap
// set-up makes its timing steady, and only the last build is used.
func (r *round) setup(reps int, fn func() error) error {
	var took, built []float64
	for i := 0; i < reps; i++ {
		sp := r.tr.begin("setup")
		b0, t0 := r.buildHost, time.Now()
		err := fn()
		took = append(took, float64(time.Since(t0)))
		built = append(built, float64(r.buildHost-b0))
		r.buildHost = b0
		r.tr.end(sp)
		if err != nil {
			return err
		}
	}
	r.setupHost += time.Duration(median(took))
	r.buildHost += time.Duration(median(built))
	return nil
}

// build times a constructor call inside set-up.
func (r *round) build(fn func()) {
	sp := r.tr.begin("build")
	t0 := time.Now()
	fn()
	r.buildHost += time.Since(t0)
	r.tr.end(sp)
}

// timed runs fn as the measured phase. The heap is collected first so
// every timed phase starts alike; after it, a forced collection gives the
// live heap the simulated state holds.
func (r *round) timed(fn func()) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	fn()
	r.timedHost += time.Since(t0)
	runtime.ReadMemStats(&after)
	r.mallocs += after.Mallocs - before.Mallocs
	r.gcCycles += after.NumGC - before.NumGC
	runtime.GC()
	runtime.ReadMemStats(&after)
	r.heapLive = max(r.heapLive, after.HeapAlloc)
}

// verify runs fn as the verification phase.
func (r *round) verify(fn func()) {
	sp := r.tr.begin("verify")
	fn()
	r.tr.end(sp)
}

// check records a failed correctness check when ok is false.
func (r *round) check(ok bool, format string, args ...any) {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

// drive advances eng (through runFor) slice by slice until no event is
// pending, recording the deepest pending-event count seen between slices.
// A traced round also records on each drive span what the slice did to
// the counters snap reads, taken outside the span so it costs the span
// nothing.
func (r *round) drive(eng *sim.Engine, runFor func(time.Duration), snap func() counters) {
	for eng.Pending() > 0 {
		var before counters
		if r.tr != nil {
			before = snap()
		}
		sp := r.tr.begin("drive")
		runFor(driveSlice)
		r.tr.end(sp)
		if r.tr != nil {
			r.tr.count(sp, delta(snap(), before))
		}
		r.sim.max("sim.max_pending", float64(eng.Pending()))
	}
}

// record notes one completed timed operation's simulated latency and, when
// the operation carries one, its per-component breakdown.
func (r *round) record(lat time.Duration, sp *trace.Span) {
	r.lats = append(r.lats, lat)
	if sp == nil {
		return
	}
	for c := trace.SA; c <= trace.SSD; c++ {
		r.parts[c] = append(r.parts[c], sp.Get(c))
	}
}

// issue wraps one call into the system under test in an "issue" span and
// accumulates its host cost when traced.
func (r *round) issue(fn func()) {
	if r.tr == nil {
		fn()
		return
	}
	sp := r.tr.begin("issue")
	t0 := time.Now()
	fn()
	r.issueHost += time.Since(t0)
	r.issues++
	r.tr.end(sp)
}

// add accumulates a counter.
func (c counters) add(name string, v float64) { c[name] += v }

// max keeps the largest value seen under name.
func (c counters) max(name string, v float64) {
	if v > c[name] {
		c[name] = v
	}
}

// highWater reports whether counter name is a high-water mark rather than
// a cumulative count.
func highWater(name string) bool { return strings.Contains(name, ".max_") }

// merge folds o into c: counts add, high-water marks keep the larger.
func (c counters) merge(o counters) {
	for k, v := range o {
		if highWater(k) {
			c.max(k, v)
		} else {
			c.add(k, v)
		}
	}
}

// delta returns what happened between two snapshots: after − before for
// counts, after itself for high-water marks.
func delta(after, before counters) counters {
	out := counters{}
	for k, v := range after {
		if highWater(k) {
			out[k] = v
		} else {
			out[k] = v - before[k]
		}
	}
	return out
}
