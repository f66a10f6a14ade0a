package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval the benchmark recorded around its own calls.
type span struct {
	Name   string   `json:"name"`
	Parent int32    `json:"parent"` // index into the span list, -1 for a root
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
	Async  bool     `json:"async,omitempty"`  // may outlive its parent
	Counts counters `json:"counts,omitempty"` // counter deltas over the span
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced rounds pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32 // stack of open nested spans
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) parent() int32 {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: t.parent(), Start: t.now()})
	t.open = append(t.open, id)
	return id
}

// beginAsync opens a span that ends from a callback, possibly after its
// parent has closed; it is not pushed on the nesting stack.
func (t *tracer) beginAsync(name string) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: t.parent(), Start: t.now(), Async: true})
	return id
}

// end closes span id; a nested span must be the innermost open one.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = t.now()
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
}

// count records the counter deltas of span id.
func (t *tracer) count(id int32, c counters) {
	if t != nil && id >= 0 {
		t.spans[id].Counts = c
	}
}

// spanTotals is the summed duration, self time and counter deltas of every
// span name.
type spanTotals struct {
	Count  int      `json:"count"`
	Total  int64    `json:"total_ns"`
	SelfNs int64    `json:"self_ns"`
	Counts counters `json:"counts,omitempty"`
}

// totals sums each span name's duration and self time: its duration minus
// the part of it that nested (non-async) child spans cover.
func (t *tracer) totals() map[string]spanTotals {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent < 0 || s.Async {
			continue
		}
		p := t.spans[s.Parent]
		child[s.Parent] += min(s.End, p.End) - max(s.Start, p.Start)
	}
	out := map[string]spanTotals{}
	for i, s := range t.spans {
		st := out[s.Name]
		st.Count++
		st.Total += s.End - s.Start
		st.SelfNs += s.End - s.Start - child[i]
		if s.Counts != nil {
			if st.Counts == nil {
				st.Counts = counters{}
			}
			st.Counts.merge(s.Counts)
		}
		out[s.Name] = st
	}
	return out
}

// write saves the spans and their per-name totals as JSON.
func (t *tracer) write(path string) error {
	buf, err := json.Marshal(struct {
		Totals map[string]spanTotals `json:"totals"`
		Spans  []span                `json:"spans"`
	}{t.totals(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
