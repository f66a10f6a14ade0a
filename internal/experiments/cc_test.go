package experiments

import (
	"fmt"
	"testing"
)

// TestCCMatrixDistinguishable asserts the controllers actually differ:
// under the identical incast workload and seed, static, DCQCN, and Swift
// must each leave a distinct measurement row. A controller whose row
// matches another's is not reacting (or both fell back to the same code
// path — the bug this test exists to catch).
func TestCCMatrixDistinguishable(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	cells, _ := IncastMatrix(Options{Seed: 7, Quick: true, Workers: 1})
	if len(cells) != 3 {
		t.Fatalf("incast matrix has %d cells, want 3", len(cells))
	}
	rows := map[string]string{}
	for _, c := range cells {
		if c.Ops == 0 {
			t.Fatalf("%s: no completed operations", c.CC)
		}
		if c.MBps <= 0 {
			t.Fatalf("%s: throughput %v, want > 0", c.CC, c.MBps)
		}
		sig := fmt.Sprintf("%v/%v/%v/%v", c.P50us, c.P99us, c.MBps, c.QueueHiWatKiB)
		if prev, dup := rows[sig]; dup {
			t.Fatalf("controllers %s and %s produced identical rows (%s)", prev, c.CC, sig)
		}
		rows[sig] = c.CC
	}
}
