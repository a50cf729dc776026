package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the public API.
type span struct {
	Name   string `json:"name"`   // the call: "Init", "Apply", "GET /v1/marginal", ...
	Label  string `json:"label"`  // what the call served: "setup", "rerun/FE1", ...
	ID     uint64 `json:"id"`     // update or request id (0 when none)
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and sampled counters in memory while it is on and
// writes the spans out when the run ends. A run switches it on and off
// between rounds (or time slices), so one run yields both traced and
// untraced figures.
type tracer struct {
	on      atomic.Bool
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}}
}

// begin opens a span and returns its index, or -1 while tracing is off.
func (t *tracer) begin(name, label string, id uint64, parent int) int {
	if !t.on.Load() {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Label: label, ID: id, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span i (a no-op for -1).
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// call runs fn inside a span.
func (t *tracer) call(name, label string, fn func() error) error {
	i := t.begin(name, label, 0, -1)
	defer t.end(i)
	return fn()
}

// sample records one value of a counter the program reports itself
// (UpdateResult stage times, queue and persist counts) while tracing is
// on.
func (t *tracer) sample(name string, v float64) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// durations returns the durations in seconds of the closed spans with
// this name and label ("" matches any label).
func (t *tracer) durations(name, label string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (label == "" || s.Label == label) && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// values returns the recorded samples of a counter.
func (t *tracer) values(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.samples[name]...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
