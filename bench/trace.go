package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the harness made into a layer. Spans live in
// memory until the run ends; IDs are 1-based indexes, parent 0 means none.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Request int    `json:"request,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// SelfNs is the span's duration minus the time its children cover,
	// filled by finish.
	SelfNs int64 `json:"self_ns"`
}

// tracer records spans from one goroutine (the traced run has one client
// and steps the daemon inline). A nil tracer records nothing, so the timed
// run shares the set-up code without paying for spans.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent, request int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		Name: name, ID: len(t.spans) + 1, Parent: parent, Request: request,
		StartNs: time.Since(t.epoch).Nanoseconds(),
	})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	s := &t.spans[id-1]
	s.EndNs = time.Since(t.epoch).Nanoseconds()
	return time.Duration(s.EndNs - s.StartNs)
}

// finish derives every span's self time. Children of one parent never
// overlap (one goroutine), so the covered part is the sum of their
// durations.
func (t *tracer) finish() {
	for i := range t.spans {
		t.spans[i].SelfNs = t.spans[i].EndNs - t.spans[i].StartNs
	}
	for _, s := range t.spans {
		if s.Parent > 0 {
			t.spans[s.Parent-1].SelfNs -= s.EndNs - s.StartNs
		}
	}
}

func (t *tracer) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return w.Flush()
}

// spanCostNs measures what recording one span costs, the basis of
// bench.trace_overhead_frac.
func spanCostNs() float64 {
	const n = 200_000
	t := newTracer()
	t.spans = make([]span, 0, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", 0, i))
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}
