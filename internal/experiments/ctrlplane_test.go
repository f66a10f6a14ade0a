package experiments

import "testing"

// TestControlPlaneGates holds the control plane's two production gates at
// quick and full scale. A planned chunk-server drain under a write storm
// must fail no foreground I/O and no replica copy, and must actually
// migrate something. The per-tenant QoS cap must keep the victim's p99
// within 2x of its p99 with the aggressor absent.
func TestControlPlaneGates(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	for _, scale := range []string{"quick", "full"} {
		quick := scale == "quick"
		t.Run(scale, func(t *testing.T) {
			opts := Options{Seed: 1, Quick: quick}

			drain, dtab := DrainCells(opts)
			if leaked := dtab.Perf.Leaked(); leaked != 0 {
				t.Fatalf("drain: %d pooled packets leaked", leaked)
			}
			for _, cell := range drain {
				if cell.FailedIOs != 0 || cell.CopyErrors != 0 || cell.Segments == 0 || cell.BlocksCopied == 0 {
					t.Errorf("drain %+v: want zero failed I/Os and copy errors, and a segment and block migrated", cell)
				}
			}

			noisy, ntab := NoisyNeighborCells(opts)
			if leaked := ntab.Perf.Leaked(); leaked != 0 {
				t.Fatalf("noisy neighbor: %d pooled packets leaked", leaked)
			}
			byMode := map[string]NoisyCell{}
			for _, cell := range noisy {
				byMode[cell.Mode] = cell
			}
			base, capped := byMode["baseline"], byMode["capped"]
			if base.VictimP99us <= 0 {
				t.Fatalf("noisy neighbor: baseline victim p99 is %v µs; no victim I/Os completed", base.VictimP99us)
			}
			ratio := capped.VictimP99us / base.VictimP99us
			t.Logf("capped victim p99 %.1f µs = %.2fx the isolated baseline %.1f µs", capped.VictimP99us, ratio, base.VictimP99us)
			if ratio > 2 {
				t.Fatalf("noisy neighbor: capped victim p99 is %.2fx the isolated baseline, gate is 2x", ratio)
			}
		})
	}
}
