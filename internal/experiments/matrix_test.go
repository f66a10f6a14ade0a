package experiments

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"lunasolar/ebs"
	"lunasolar/internal/cc"
	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
)

// renderAll flattens a table into everything the differential gate
// compares: the formatted text (Perf is deliberately outside Format) plus
// every machine-readable metric row.
func renderAll(t *testing.T, tab *Table, exp string, seed int64) string {
	t.Helper()
	out := tab.Format()
	for _, m := range tab.Metrics(exp, seed) {
		row, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out += string(row) + "\n"
	}
	return out
}

// variant is one change against a matrix row's baseline. A worker-count
// variant only edits the run's Options. A hatch variant also flips one
// process-wide switch the way the matching ebsbench flag does: set makes
// the flip and returns the undo, and opts mirrors any Options field the
// flag sets alongside it.
type variant struct {
	name string
	set  func() (undo func()) // nil for worker-count variants
	opts func(*Options)
}

// flip returns a set func that switches a process-wide hatch to v and
// returns the undo.
func flip[T any](get func() T, set func(T), v T) func() func() {
	return func() func() {
		prev := get()
		set(v)
		return func() { set(prev) }
	}
}

var (
	noWheel  = variant{name: "no-wheel", set: flip(sim.CoarseTimers, sim.SetCoarseTimers, false)}
	copyPath = variant{name: "copy-path", set: flip(simnet.ZeroCopy, simnet.SetZeroCopy, false)}
	// telemetry mirrors -metrics-out: the simnet hatch plus per-experiment
	// registry export.
	telemetry = variant{name: "telemetry", set: flip(simnet.TelemetryEnabled, simnet.SetTelemetry, true),
		opts: func(o *Options) { o.Telemetry = true }}
	// ccStatic mirrors -cc static: naming the default controller explicitly
	// must equal leaving the hatch untouched.
	ccStatic = variant{name: "cc-static", set: flip(ebs.DefaultCC, ebs.SetDefaultCC, cc.KindStatic)}
	// hybrid mirrors -fidelity hybrid: the cluster default plus the
	// experiment option. Only Diurnal honors it; everywhere else the fluid
	// plane must be a pure bystander.
	hybrid = variant{name: "fidelity-hybrid", set: flip(ebs.DefaultFidelity, ebs.SetDefaultFidelity, ebs.FidelityHybrid),
		opts: func(o *Options) { o.Fidelity = ebs.FidelityHybrid }}

	// hatches orders the hatch phases of TestDifferentialMatrix.
	hatches = []variant{noWheel, copyPath, telemetry, ccStatic, hybrid}
)

func workers(n int) variant {
	return variant{name: fmt.Sprintf("workers=%d", n), opts: func(o *Options) { o.Workers = n }}
}

func coupledWorkers(n int) variant {
	return variant{name: fmt.Sprintf("coupled-workers=%d", n), opts: func(o *Options) { o.CoupledWorkers = n }}
}

// noRace drops variants from a race-detector build.
func noRace(vs ...variant) []variant {
	if raceEnabled {
		return nil
	}
	return vs
}

// matrixRow is one experiment at a baseline Options plus the variants
// that must reproduce its output.
type matrixRow struct {
	exp      string
	fn       func(Options) *Table
	base     Options
	variants []variant
}

// q is the quick-scale baseline most rows start from.
func q(seed int64, workers int) Options {
	return Options{Seed: seed, Quick: true, Workers: workers}
}

// run executes r under v's Options change; the zero variant is the
// baseline. It fails the test on any leaked pooled packet.
func (r matrixRow) run(t *testing.T, v variant) string {
	t.Helper()
	opts := r.base
	if v.opts != nil {
		v.opts(&opts)
	}
	tab := r.fn(opts)
	if leaked := tab.Perf.Leaked(); leaked != 0 {
		t.Fatalf("%d pooled packets leaked", leaked)
	}
	return renderAll(t, tab, r.exp, opts.Seed)
}

// check fails the test unless r under v renders exactly want.
func (r matrixRow) check(t *testing.T, v variant, want string) {
	t.Helper()
	if got := r.run(t, v); got != want {
		t.Fatalf("%s output differs from the baseline\n--- baseline ---\n%s\n--- %s ---\n%s", v.name, want, v.name, got)
	}
}

// runDefaults runs r's baseline and every worker-count variant with all
// hatches at their defaults, checks each variant against the baseline,
// and returns the baseline rendering for the hatch phases.
func (r matrixRow) runDefaults(t *testing.T) string {
	t.Helper()
	want := r.run(t, variant{})
	for _, v := range r.variants {
		if v.set == nil {
			r.check(t, v, want)
		}
	}
	return want
}

// workerMatrix runs worker-count-only rows as parallel subtests named
// after their experiment. These rows are the parallel runner's race
// coverage and run under -race.
func workerMatrix(t *testing.T, rows ...matrixRow) {
	for _, r := range rows {
		t.Run(r.exp, func(t *testing.T) {
			t.Parallel()
			r.runDefaults(t)
		})
	}
}

// TestParallelRunDeterminism is the share-nothing runtime's worker-count
// gate: the same experiment at the same seed must render identically
// whether its shards run serially or on a parallel worker pool. Fig6
// exercises histogram merging across per-stack shards, Fig8 the pre-drawn
// randomness scheme, and the control-plane scenarios management traffic
// interleaving with foreground I/O across sharded cells.
func TestParallelRunDeterminism(t *testing.T) {
	w4 := []variant{workers(4)}
	workerMatrix(t,
		matrixRow{"fig6", Fig6, q(7, 1), w4},
		matrixRow{"fig8", Fig8, q(7, 1), w4},
		matrixRow{"provision-storm", ProvisionStorm, q(7, 1), w4},
		matrixRow{"drain", Drain, q(7, 1), w4},
		matrixRow{"noisyneighbor", NoisyNeighbor, q(7, 1), w4},
	)
}

// TestCCMatrixDeterminism holds the congestion-control fabric experiments
// byte-identical between 1 and 4 workers.
func TestCCMatrixDeterminism(t *testing.T) {
	w4 := []variant{workers(4)}
	workerMatrix(t,
		matrixRow{"incast", Incast, q(7, 1), w4},
		matrixRow{"spine-oversub", SpineOversub, q(7, 1), w4},
		matrixRow{"elephantmice", ElephantMice, q(7, 1), w4},
	)
}

// TestCoupledDifferential holds the coupled (window-synchronised) runtime
// byte-identical between 1 and 2, 4 and 8 window workers.
func TestCoupledDifferential(t *testing.T) {
	sweep := []variant{coupledWorkers(2), coupledWorkers(4), coupledWorkers(8)}
	base := Options{Seed: 1, Quick: true, CoupledWorkers: 1}
	workerMatrix(t,
		matrixRow{"coupled", CoupledStorm, base, sweep},
		matrixRow{"coupledfail", CoupledFailover, base, sweep},
	)
}

// TestDifferentialMatrix is the repo's byte-identity gate for the hatches:
// every hatch must leave experiment output untouched. Each row is an
// experiment at a baseline Options plus its variants; every variant must
// match the row's baseline under renderAll (formatted table plus metric
// rows), and every run must return all pooled packets. The seed-7
// worker-count rows of the fabric, control-plane and coupled experiments
// run as TestParallelRunDeterminism, TestCCMatrixDeterminism and
// TestCoupledDifferential on the same row machinery.
//
// Rows and the gates they replace:
//
//	fig6 seed 1, 1 worker         CI wheel, copy-path, telemetry, cc and fidelity differential steps
//	fig6 seed 7, 4 workers        TestWheel/CopyPath/TelemetryDifferentialOutput (fig6)
//	table2 seed 7, 4 workers      TestWheel/CopyPath/TelemetryDifferentialOutput (table2)
//	fig15, rdmacliff seed 1       CI cc differential step
//	rdmacliff seed 7              TestCCDefaultHatchIdentity
//	incast seed 1                 CI fidelity differential step, TestHybridCCMatrixIdentity, incast CC-matrix report leak check
//	ctrl scenarios seed 1         CI ctrl differential step
//	diurnal (hybrid) seed 1       TestHybridWorkerDeterminism
//
// The coupled rows of TestCoupledDifferential also replace the CI coupled
// differential step and the coupled scaling report (8 workers).
//
// Hatches are process-wide, so the matrix runs in phases: first every
// baseline and worker-count variant with all hatches at their defaults,
// then one phase per hatch with only that hatch flipped. Runs inside a
// phase share the process state and proceed in parallel. The worker-count
// variants run under -race. The table2 hatch row and the seed-7 fig6
// hatch variants skip there, as their old tests did, and so does fig15:
// at one worker it is serial code the detector slows ~10x to over two
// minutes a run.
//
//lint:gate no-wheel
//lint:gate copy-path
//lint:gate telemetry
//lint:gate cc
func TestDifferentialMatrix(t *testing.T) {
	// A short failure window still drives every Table2 scenario through
	// injection, retransmit backoff and failover, which is what the
	// equality property needs; the full quick window costs minutes per run.
	table2Window = 400 * time.Millisecond
	defer func() { table2Window = 0 }()

	ctrlWorkers := []variant{workers(4)}
	rows := []matrixRow{
		{"fig6", Fig6, q(1, 1), []variant{noWheel, copyPath, telemetry, ccStatic, hybrid}},
		{"fig6", Fig6, q(7, 4), noRace(noWheel, copyPath, telemetry)},
		{"table2", Table2, q(7, 4), noRace(noWheel, copyPath, telemetry)},
		{"fig15", Fig15, q(1, 1), noRace(ccStatic)},
		{"rdmacliff", RDMACliff, q(1, 1), []variant{ccStatic}},
		{"rdmacliff", RDMACliff, q(7, 1), []variant{ccStatic}},
		{"incast", Incast, q(1, 1), []variant{hybrid, workers(4)}},
		{"provision-storm", ProvisionStorm, q(1, 1), ctrlWorkers},
		{"drain", Drain, q(1, 1), ctrlWorkers},
		{"noisyneighbor", NoisyNeighbor, q(1, 1), ctrlWorkers},
		{"diurnal", Diurnal, Options{Seed: 1, Quick: true, Workers: 1, Fidelity: ebs.FidelityHybrid}, []variant{workers(2)}},
	}
	rowName := func(i int) string { return fmt.Sprintf("%s/seed%d", rows[i].exp, rows[i].base.Seed) }

	// Phase one: baselines and worker-count variants, hatches at defaults.
	want := make([]string, len(rows))
	t.Run("defaults", func(t *testing.T) {
		for i := range rows {
			t.Run(rowName(i), func(t *testing.T) {
				if len(rows[i].variants) == 0 {
					t.Skip("determinism gate, not a memory-safety test; too slow under the race detector")
				}
				t.Parallel()
				want[i] = rows[i].runDefaults(t)
			})
		}
	})

	// One phase per hatch: flip it, rerun every row that carries it.
	for _, h := range hatches {
		undo := h.set()
		t.Run(h.name, func(t *testing.T) {
			for i := range rows {
				for _, v := range rows[i].variants {
					if v.name != h.name {
						continue
					}
					t.Run(rowName(i), func(t *testing.T) {
						if want[i] == "" {
							t.Skip("baseline failed")
						}
						t.Parallel()
						rows[i].check(t, v, want[i])
					})
				}
			}
		})
		undo()
	}
}
