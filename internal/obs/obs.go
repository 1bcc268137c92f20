// Package obs is the pipeline-wide observability layer: a lightweight,
// allocation-conscious metrics registry — counters, gauges and HDR
// histograms under hierarchical dotted keys such as "store.pool.hits",
// "extsort.runs.spilled" or "cube.buc.passes" — plus a per-run Trace of
// phase spans (match → sort → cube passes) carrying wall time and peak
// estimated memory.
//
// The registry exists so the paper's §4 comparisons (I/O passes, sort
// spills, buffer-pool behaviour) can be asserted against by tests and
// emitted as machine-readable JSON by the benchmark harness, giving later
// performance work a regression substrate.
//
// Nil-safety is the central design rule: a nil *Registry hands out nil
// handles, and every method on a nil handle does nothing and allocates
// nothing. Instrumented hot paths therefore cost one predictable branch
// when observability is off; tests pin this with testing.AllocsPerRun.
// Handles are cheap to hold, safe for concurrent use, and should be
// resolved once (outside loops) by code on a hot path.
package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time value.
type Gauge struct{ v atomic.Int64 }

// Set stores n. Safe on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// SetMax raises the gauge to n if n exceeds the stored value — peak
// tracking. Safe on a nil receiver.
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the stored value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named collection of metrics and a trace of phase spans.
// The zero value is not usable; call New. All methods are safe for
// concurrent use and safe on a nil receiver (returning nil handles).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hdrs     map[string]*HDR
	spans    []SpanRecord
	start    time.Time
}

// New returns an empty registry whose trace clock starts now.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hdrs:     map[string]*HDR{},
		start:    time.Now(),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. A nil registry returns a nil (no-op) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
// A nil registry returns a nil (no-op) handle.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Span is an in-flight phase of the run trace. End records it; spans may
// nest and overlap freely (the trace is a flat list ordered by start).
type Span struct {
	r     *Registry
	name  string
	start time.Time
	peak  int64
	done  atomic.Bool
}

// Span starts a phase span. A nil registry returns a nil (no-op) span.
func (r *Registry) Span(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{r: r, name: name, start: time.Now()}
}

// SetPeakBytes attaches the phase's peak estimated memory. Safe on a nil
// receiver.
func (s *Span) SetPeakBytes(n int64) {
	if s != nil {
		atomic.StoreInt64(&s.peak, n)
	}
}

// End records the span in the registry trace; the second and later End
// calls are ignored. Safe on a nil receiver.
func (s *Span) End() {
	if s == nil || !s.done.CompareAndSwap(false, true) {
		return
	}
	rec := SpanRecord{
		Name:       s.name,
		StartNS:    s.start.Sub(s.r.start).Nanoseconds(),
		DurationNS: time.Since(s.start).Nanoseconds(),
		PeakBytes:  atomic.LoadInt64(&s.peak),
	}
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, rec)
	s.r.mu.Unlock()
}

// SpanRecord is one completed phase of the trace.
type SpanRecord struct {
	Name string `json:"name"`
	// StartNS is the offset from registry creation.
	StartNS    int64 `json:"start_ns"`
	DurationNS int64 `json:"duration_ns"`
	// PeakBytes is the phase's peak estimated memory (0 when not tracked).
	PeakBytes int64 `json:"peak_bytes,omitempty"`
}

// Snapshot is a point-in-time copy of everything the registry holds, in
// the machine-readable shape the -metrics flag emits.
type Snapshot struct {
	Counters map[string]int64 `json:"counters"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
	// HDR carries the histograms' quantile summaries (p50..p999 in
	// observed units; nanoseconds by convention for latency keys).
	HDR   map[string]HDRStats `json:"hdr,omitempty"`
	Spans []SpanRecord        `json:"spans,omitempty"`
}

// Snapshot copies the registry state. A nil registry yields an empty
// (non-nil-map) snapshot.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{Counters: map[string]int64{}}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, c := range r.counters {
		snap.Counters[k] = c.Value()
	}
	if len(r.gauges) > 0 {
		snap.Gauges = map[string]int64{}
		for k, g := range r.gauges {
			snap.Gauges[k] = g.Value()
		}
	}
	if len(r.hdrs) > 0 {
		snap.HDR = map[string]HDRStats{}
		for k, h := range r.hdrs {
			snap.HDR[k] = h.Snapshot().Stats()
		}
	}
	if len(r.spans) > 0 {
		snap.Spans = make([]SpanRecord, len(r.spans))
		copy(snap.Spans, r.spans)
		sort.SliceStable(snap.Spans, func(i, j int) bool {
			return snap.Spans[i].StartNS < snap.Spans[j].StartNS
		})
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON (keys sorted, so output
// is diff-stable apart from measured values).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteJSONFile writes the snapshot to path, replacing any existing file.
func (r *Registry) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
