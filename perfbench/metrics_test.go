package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the metric names live in.
type benchmarkSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestMetricsMatchBenchmarkJSON checks that the untraced and traced runs
// print exactly the metrics BENCHMARK.json declares, with its units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	r := newRound(1, nil)
	r.setupHost, r.timedHost, r.buildHost = time.Millisecond, time.Second, time.Millisecond
	r.mallocs, r.heapLive = 1000, 1<<20
	r.summary = summary{"ops": 10, "attempted": 10, "sim.events": 100}
	shares := map[string]float64{}

	for _, tc := range []struct {
		name string
		want []specMetric
		fill func(map[string]metric)
	}{
		{"end_to_end", spec.EndToEnd, func(m map[string]metric) { endToEnd(m, []*round{r}, r.summary) }},
		{"per_layer", spec.PerLayer, func(m map[string]metric) {
			perLayer(m, []*round{r}, []*round{r}, r.summary, shares)
		}},
	} {
		got := map[string]metric{}
		tc.fill(got)
		want := map[string]string{}
		for _, m := range tc.want {
			want[m.Name] = m.Unit
		}
		for name, unit := range want {
			if m, ok := got[name]; !ok {
				t.Errorf("%s: %s declared but not reported", tc.name, name)
			} else if m.Unit != unit {
				t.Errorf("%s: %s reported in %q, declared in %q", tc.name, name, m.Unit, unit)
			}
		}
		var extra []string
		for name := range got {
			if _, ok := want[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		if len(extra) > 0 {
			t.Errorf("%s: reported but not declared: %v", tc.name, extra)
		}
	}
}

func TestQuantileNeedsTenBeyond(t *testing.T) {
	xs := make([]time.Duration, 10_000)
	for i := range xs {
		xs[len(xs)-1-i] = time.Duration(i + 1)
	}
	if v, err := quantile(xs, 0.999); err != nil || v != 9990 {
		t.Errorf("p999 of 1..10000 = %v, %v; want 9990", v, err)
	}
	if v, err := quantile(xs, 0.5); err != nil || v != 5000 {
		t.Errorf("p50 of 1..10000 = %v, %v; want 5000", v, err)
	}
	if _, err := quantile(xs[:9_999], 0.999); err == nil {
		t.Error("p999 of 9999 samples accepted; want an error")
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{}
	tr.spans = []span{
		{Name: "drive", Parent: -1, Start: 0, End: 100, Counts: counters{"sim.events": 5, "simnet.max_queue_bytes": 9}},
		{Name: "issue", Parent: 0, Start: 10, End: 30},
		{Name: "issue", Parent: 0, Start: 50, End: 60},
		{Name: "ctrl.drain", Parent: 0, Start: 40, End: 400, Async: true},
		{Name: "drive", Parent: -1, Start: 400, End: 410, Counts: counters{"sim.events": 7, "simnet.max_queue_bytes": 3}},
	}
	got := tr.totals()
	if d := got["drive"]; d.Count != 2 || d.Total != 110 || d.SelfNs != 80 {
		t.Errorf("drive totals = %+v, want 2 spans, 110 ns, 80 ns self", d)
	}
	if c := got["drive"].Counts; c["sim.events"] != 12 || c["simnet.max_queue_bytes"] != 9 {
		t.Errorf("drive counts = %v, want 12 events summed and the larger queue high-water mark 9", c)
	}
	if d := got["issue"]; d.Count != 2 || d.Total != 30 || d.SelfNs != 30 {
		t.Errorf("issue totals = %+v, want 2 spans, 30 ns, 30 ns self", d)
	}
}
