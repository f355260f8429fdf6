package main

import (
	"encoding/json"
	"fmt"
	"os"

	"extdict/internal/perf"
)

// span is one timed call from the benchmark into a layer's public API.
// Times are microseconds since the tracer started; Parent is -1 for a root.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps the spans of a traced run in memory. The benchmark calls
// into the layers from one goroutine, so the open spans form a stack. All
// methods are no-ops on a nil tracer, which is how untraced runs pass one.
type tracer struct {
	origin perf.Stopwatch
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: perf.StartWall()} }

func (t *tracer) now() float64 { return float64(t.origin.Elapsed().Nanoseconds()) / 1e3 }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartUS: t.now()})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndUS = t.now()
	t.open = t.open[:len(t.open)-1]
}

// do runs f inside a span.
func (t *tracer) do(name string, f func()) {
	id := t.begin(name)
	f()
	t.end(id)
}

// durations returns the length in seconds of every span with the given
// name and, if parent >= 0, that parent.
func (t *tracer) durations(name string, parent int) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (parent < 0 || s.Parent == parent) {
			out = append(out, (s.EndUS-s.StartUS)/1e6)
		}
	}
	return out
}

// self returns the span's length minus the part its children cover, in
// seconds.
func (t *tracer) self(id int) float64 {
	s := t.spans[id]
	d := s.EndUS - s.StartUS
	for _, c := range t.spans[id+1:] {
		if c.Parent == id {
			d -= c.EndUS - c.StartUS
		}
	}
	return d / 1e6
}

// write stores the spans as JSON.
func (t *tracer) write(path, workload string, seed uint64) error {
	b, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": t.spans})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
