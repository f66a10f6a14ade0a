package experiments

import "testing"

// TestCoupledSeedSensitivity guards against a degenerate determinism "fix"
// that would make the output independent of the scenario: different seeds
// must still produce different storms.
func TestCoupledSeedSensitivity(t *testing.T) {
	a := CoupledStorm(Options{Seed: 1, Quick: true, CoupledWorkers: 2})
	b := CoupledStorm(Options{Seed: 2, Quick: true, CoupledWorkers: 2})
	if a.Format() == b.Format() {
		t.Fatal("seeds 1 and 2 produced identical storms; per-disk streams are not seeded")
	}
}
