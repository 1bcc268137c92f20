package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeTimerHistogram(t *testing.T) {
	r := New()
	c := r.Counter("store.pool.hits")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	if r.Counter("store.pool.hits") != c {
		t.Error("same name returned a different counter handle")
	}

	g := r.Gauge("cube.peak_bytes")
	g.Set(10)
	g.SetMax(7) // lower: ignored
	g.SetMax(25)
	if got := g.Value(); got != 25 {
		t.Errorf("gauge = %d, want 25", got)
	}

	// Durations go to an HDR histogram, the one histogram kind.
	h := r.HDR("phase.sort.latency")
	h.ObserveDuration(2 * time.Millisecond)
	h.ObserveDuration(5 * time.Millisecond)
	if h.Count() != 2 {
		t.Errorf("histogram count=%d", h.Count())
	}

	snap := r.Snapshot()
	if snap.Counters["store.pool.hits"] != 4 {
		t.Errorf("snapshot counter = %d", snap.Counters["store.pool.hits"])
	}
	if snap.Gauges["cube.peak_bytes"] != 25 {
		t.Errorf("snapshot gauge = %d", snap.Gauges["cube.peak_bytes"])
	}
	hs := snap.HDR["phase.sort.latency"]
	if hs.Count != 2 || hs.Max != int64(5*time.Millisecond) {
		t.Errorf("snapshot histogram = %+v", hs)
	}
}

func TestSpans(t *testing.T) {
	r := New()
	sp := r.Span("match")
	sp.SetPeakBytes(4096)
	sp.End()
	sp.End() // double End is ignored
	r.Span("cube.buc").End()
	snap := r.Snapshot()
	if len(snap.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(snap.Spans))
	}
	if snap.Spans[0].Name != "match" || snap.Spans[0].PeakBytes != 4096 {
		t.Errorf("span[0] = %+v", snap.Spans[0])
	}
	if snap.Spans[0].DurationNS < 0 || snap.Spans[1].StartNS < snap.Spans[0].StartNS {
		t.Errorf("span ordering: %+v", snap.Spans)
	}
}

func TestWriteJSON(t *testing.T) {
	r := New()
	r.Counter("a.b").Add(1)
	r.Gauge("g").Set(2)
	r.Span("p").End()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("emitted JSON does not parse: %v\n%s", err, buf.String())
	}
	if snap.Counters["a.b"] != 1 || snap.Gauges["g"] != 2 || len(snap.Spans) != 1 {
		t.Errorf("round-trip snapshot = %+v", snap)
	}
	if !strings.Contains(buf.String(), `"a.b": 1`) {
		t.Errorf("JSON missing counter key: %s", buf.String())
	}
}

// TestNilRegistryIsFreeOfAllocations pins the tentpole contract: with no
// registry attached, every instrumentation call is a no-op that allocates
// nothing, so production paths may be instrumented unconditionally.
func TestNilRegistryIsFreeOfAllocations(t *testing.T) {
	var r *Registry
	allocs := testing.AllocsPerRun(1000, func() {
		r.Counter("store.pool.hits").Add(1)
		r.Counter("x").Inc()
		r.Gauge("g").Set(7)
		r.Gauge("g").SetMax(9)
		r.HDR("h").Observe(123)
		sp := r.Span("phase")
		sp.SetPeakBytes(1)
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("nil-registry instrumentation allocates %.1f per run, want 0", allocs)
	}
	// Nil handles read as zero.
	if r.Counter("x").Value() != 0 || r.Gauge("x").Value() != 0 ||
		r.HDR("x").Count() != 0 {
		t.Error("nil handles must read as zero")
	}
	if got := r.Snapshot(); len(got.Counters) != 0 {
		t.Errorf("nil snapshot = %+v", got)
	}
}

// TestHotPathHandleAllocations: Add on a live handle must not allocate
// either (handles are meant to be cached by hot loops).
func TestHotPathHandleAllocations(t *testing.T) {
	r := New()
	c := r.Counter("hot")
	g := r.Gauge("hot")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.SetMax(3)
	})
	if allocs != 0 {
		t.Errorf("live-handle Add allocates %.1f per run, want 0", allocs)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").SetMax(int64(i))
				r.HDR("h").Observe(int64(i))
			}
			r.Span("s").End()
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap.Counters["c"] != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", snap.Counters["c"])
	}
	if snap.Gauges["g"] != 999 {
		t.Errorf("concurrent gauge max = %d, want 999", snap.Gauges["g"])
	}
	if snap.HDR["h"].Count != 8000 {
		t.Errorf("concurrent histogram = %+v", snap.HDR["h"])
	}
	if len(snap.Spans) != 8 {
		t.Errorf("concurrent spans = %d, want 8", len(snap.Spans))
	}
}
