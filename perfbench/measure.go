package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"lunasolar/internal/trace"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	out      string
}

// measure runs rounds of wl until the budget is spent and reduces them to
// the result.
func measure(wl func(*round) error, cfg runConfig, log io.Writer) (result, error) {
	start := time.Now()
	dir := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
		// A traced run replaces the previous one's spans and profiles.
		if err := os.RemoveAll(dir); err != nil {
			return result{}, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return result{}, err
		}
	}
	rs, err := runRounds(wl, cfg, tr, dir)
	if err != nil {
		return result{}, err
	}
	var shares map[string]float64
	if cfg.traced {
		if err := tr.write(filepath.Join(dir, "spans.json")); err != nil {
			return result{}, err
		}
		if shares, err = cpuShares(rs.profiles); err != nil {
			return result{}, err
		}
		fmt.Fprintf(log, "perfbench: spans and CPU profiles in %s\n", dir)
	}
	all := append(append([]*round{rs.warmup}, rs.plain...), rs.traced...)
	for i, r := range all {
		fmt.Fprintf(log, "perfbench: round %d: setup %.3fms timed %.3fs io/s %.0f allocs/io %.3f heap %.1fMB gc %d traced %v\n",
			i, float64(r.setupHost)/1e6, r.timedHost.Seconds(), r.ops()/r.timedHost.Seconds(),
			float64(r.mallocs)/r.ops(), float64(r.heapLive)/1e6, r.gcCycles, r.tr != nil)
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range all {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, c := range r.checks {
			res.Correct = false
			fmt.Fprintf(log, "perfbench: check failed: %s\n", c)
		}
	}
	first := rs.warmup.summary
	for i, r := range all[1:] {
		if diff := first.diff(r.summary); diff != "" {
			res.Correct = false
			fmt.Fprintf(log, "perfbench: NONDETERMINISM: round %d differs from round 0 with the same seed: %s\n", i+1, diff)
		}
	}
	if diff, err := checkFingerprint(cfg, first); err != nil {
		return result{}, err
	} else if diff != "" {
		res.Correct = false
		fmt.Fprintf(log, "perfbench: NONDETERMINISM: differs from an earlier run of the same binary and seed: %s\n", diff)
	}

	if cfg.traced {
		perLayer(res.Metrics, rs.plain, rs.traced, first, shares)
	} else {
		endToEnd(res.Metrics, rs.plain, first)
	}
	fmt.Fprintf(log, "perfbench: %s seed %d: %d rounds (1 warm-up, %d traced) in %s; per round %.0f of %.0f operations completed (the latency samples), %.0f failed; sim latency p50/p99/p999 %.1f/%.1f/%.1f us\n",
		cfg.workload, cfg.seed, len(all), len(rs.traced), time.Since(start).Round(time.Millisecond),
		first["ops"], first["attempted"], first["failed"], first["lat.p50_us"], first["lat.p99_us"], first["lat.p999_us"])
	return res, nil
}

// roundSet is every round of a run.
type roundSet struct {
	warmup        *round   // warms caches, pools and the heap: checked, never measured
	plain, traced []*round // measured rounds without and with tracing
	profiles      []string // the traced rounds' CPU profiles
}

// runRounds runs the warm-up round, then measured rounds until the next
// one would overrun the budget, and at least one. A traced run alternates
// untraced and traced rounds, so host drift does not bias the tracing
// overhead, and runs at least one of each.
func runRounds(wl func(*round) error, cfg runConfig, tr *tracer, dir string) (roundSet, error) {
	start := time.Now()
	var rs roundSet
	var took []float64
	for n := 0; ; n++ {
		traced := cfg.traced && n%2 == 0 && n > 0
		done := len(rs.plain) > 0 && (!cfg.traced || len(rs.traced) > 0)
		if done && time.Since(start)+time.Duration(median(took)) > cfg.budget {
			return rs, nil
		}
		var rtr *tracer
		if traced {
			rtr = tr
		}
		r := newRound(cfg.seed, rtr)
		t0 := time.Now()
		var err error
		if traced {
			profile := filepath.Join(dir, fmt.Sprintf("cpu-%d.pprof", len(rs.profiles)))
			rs.profiles = append(rs.profiles, profile)
			err = profiled(profile, func() error { return runRound(wl, r) })
		} else {
			err = runRound(wl, r)
		}
		if err != nil {
			return rs, err
		}
		switch {
		case n == 0:
			rs.warmup = r
			continue
		case traced:
			rs.traced = append(rs.traced, r)
		default:
			rs.plain = append(rs.plain, r)
		}
		took = append(took, float64(time.Since(t0)))
	}
}

// runRound runs one round of wl and summarizes it.
func runRound(wl func(*round) error, r *round) error {
	sp := r.tr.begin("round")
	err := wl(r)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	return r.summarize()
}

// profiled runs fn with the CPU profiler writing to path.
func profiled(path string, fn func() error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	err = fn()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ops is the number of operations a round completed in its timed phase.
func (r *round) ops() float64 { return r.summary["ops"] }

// endToEnd fills the untraced run's metrics: host figures as medians over
// rounds, sim figures from the (identical) rounds' summary.
func endToEnd(m map[string]metric, rounds []*round, sim summary) {
	m["setup_s"] = metric{medianOf(rounds, func(r *round) float64 { return r.setupHost.Seconds() }), "s"}
	m["io_per_s"] = metric{ioPerSec(rounds), "1/s"}
	m["allocs_per_io"] = metric{medianOf(rounds, func(r *round) float64 { return float64(r.mallocs) / r.ops() }), "count"}
	m["heap_live_MB"] = metric{medianOf(rounds, func(r *round) float64 { return float64(r.heapLive) / 1e6 }), "MB"}
	m["sim_lat_p50_us"] = metric{sim["lat.p50_us"], "us"}
}

func ioPerSec(rounds []*round) float64 {
	return medianOf(rounds, func(r *round) float64 { return r.ops() / r.timedHost.Seconds() })
}

// perLayer fills the traced run's per-module metrics. CPU shares and the
// issue cost come from the traced rounds, other host figures from the
// untraced ones, counters from the sim summary.
func perLayer(m map[string]metric, plain, traced []*round, sim summary, shares map[string]float64) {
	for _, mod := range shareModules {
		m[mod+".cpu_share"] = metric{shares[mod], "ratio"}
	}
	ops := sim["ops"]
	perIO := func(name string) float64 { return sim[name] / ops }
	m["sim.events_per_io"] = metric{perIO("sim.events"), "count"}
	m["sim.ns_per_event"] = metric{medianOf(plain, func(r *round) float64 { return float64(r.timedHost) / r.sim["sim.events"] }), "ns"}
	m["sim.max_pending"] = metric{sim["sim.max_pending"], "count"}
	m["simnet.copies_per_io"] = metric{perIO("simnet.copies"), "count"}
	m["simnet.wire_bytes_per_io"] = metric{perIO("simnet.wire_bytes"), "B"}
	m["simnet.drops"] = metric{sim["simnet.drops"], "count"}
	m["simnet.max_queue_bytes"] = metric{sim["simnet.max_queue_bytes"], "B"}
	m["blockserver.ops_per_io"] = metric{perIO("blockserver.ops"), "count"}
	m["chunkserver.ops_per_io"] = metric{perIO("chunkserver.ops"), "count"}
	m["chunkserver.crc_errors"] = metric{sim["chunkserver.crc_errors"], "count"}
	for _, name := range []string{"core.retransmits", "core.path_failovers", "core.probes", "tcpstack.retransmits", "tcpstack.timeouts", "ctrl.blocks_copied"} {
		m[name] = metric{sim[name], "count"}
	}
	for _, part := range []string{"sa", "fn", "bn", "ssd"} {
		m["trace."+part+"_p99_us"] = metric{sim["trace."+part+"_p99_us"], "us"}
	}
	m["ctrl.drain_ms"] = metric{sim["ctrl.drain_ms"], "ms"}
	m["ctrl.cutover_p99_us"] = metric{sim["ctrl.cutover_p99_us"], "us"}
	var issueHost time.Duration
	var issues int
	for _, r := range traced {
		issueHost += r.issueHost
		issues += r.issues
	}
	m["sa.issue_ns"] = metric{float64(issueHost) / float64(max(issues, 1)), "ns"}
	m["ebs.build_ms"] = metric{medianOf(plain, func(r *round) float64 { return float64(r.buildHost) / 1e6 }), "ms"}
	m["runtime.gc_cycles"] = metric{medianOf(plain, func(r *round) float64 { return float64(r.gcCycles) }), "count"}
	m["bench.trace_overhead"] = metric{ioPerSec(plain) / ioPerSec(traced), "ratio"}
	m["bench.failed_io_ratio"] = metric{sim["failed"] / sim["attempted"], "ratio"}
	m["bench.lat_samples"] = metric{sim["ops"], "count"}
	m["sim_lat_p99_us"] = metric{sim["lat.p99_us"], "us"}
	m["sim_lat_p999_us"] = metric{sim["lat.p999_us"], "us"}
}

// summary is everything about a round that depends on the seed alone:
// operation counts, exact latency percentiles and every sim counter.
type summary map[string]float64

// percentiles are the reported latency quantiles.
var percentiles = []struct {
	name string
	q    float64
}{{"p50", 0.50}, {"p99", 0.99}, {"p999", 0.999}}

// summarize reduces the round's raw samples to its summary and drops
// them, so finished rounds do not weigh on later rounds' live heap.
func (r *round) summarize() error {
	s, err := simSummary(r)
	r.summary, r.lats, r.parts = s, nil, [len(r.parts)][]time.Duration{}
	return err
}

func simSummary(r *round) (summary, error) {
	s := summary{}
	for k, v := range r.sim {
		s[k] = v
	}
	s["attempted"] = float64(r.attempted)
	s["failed"] = float64(r.failed)
	s["ops"] = float64(len(r.lats))
	var sum time.Duration
	for _, l := range r.lats {
		sum += l
	}
	s["lat.sum_ns"] = float64(sum)
	for _, p := range percentiles {
		v, err := quantile(r.lats, p.q)
		if err != nil {
			return nil, fmt.Errorf("latency %s: %w", p.name, err)
		}
		s["lat."+p.name+"_us"] = float64(v) / 1e3
	}
	names := []string{"sa", "fn", "bn", "ssd"}
	for c := trace.SA; c <= trace.SSD; c++ {
		if len(r.parts[c]) == 0 {
			continue
		}
		v, err := quantile(r.parts[c], 0.99)
		if err != nil {
			return nil, err
		}
		s["trace."+names[c]+"_p99_us"] = float64(v) / 1e3
	}
	return s, nil
}

// quantile returns the nearest-rank q-quantile of xs. It refuses a
// quantile with fewer than ten samples beyond it.
func quantile(xs []time.Duration, q float64) (time.Duration, error) {
	n := len(xs)
	if float64(n)*(1-q) < 10-1e-9 {
		return 0, fmt.Errorf("%d samples leave fewer than ten beyond the %g quantile", n, q)
	}
	sorted := append([]time.Duration(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[int(math.Ceil(q*float64(n)))-1], nil
}

// diff lists the keys whose values differ between two summaries.
func (s summary) diff(o summary) string {
	var out []string
	for _, k := range unionKeys(s, o) {
		a, okA := s[k]
		b, okB := o[k]
		if okA != okB || a != b {
			out = append(out, fmt.Sprintf("%s %v != %v", k, a, b))
		}
	}
	return strings.Join(out, "; ")
}

func unionKeys(a, b summary) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range []summary{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// checkFingerprint compares s with the summary an earlier run of the same
// binary, workload and seed stored, or stores it when there is none.
// Traced and untraced runs share the file, so tracing must not change it.
func checkFingerprint(cfg runConfig, s summary) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(bin)
	dir := filepath.Join(cfg.out, "fingerprints")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", cfg.workload, cfg.seed, hex.EncodeToString(sum[:6])))
	old, err := os.ReadFile(path)
	if err == nil {
		var prev summary
		if err := json.Unmarshal(old, &prev); err != nil {
			return "", fmt.Errorf("fingerprint %s: %w", path, err)
		}
		return prev.diff(s), nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return "", err
	}
	buf, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return "", err
	}
	return "", os.Rename(tmp, path)
}

// medianOf is the median of f over rounds.
func medianOf(rounds []*round, f func(*round) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = f(r)
	}
	return median(xs)
}

// median returns the median of xs, 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
