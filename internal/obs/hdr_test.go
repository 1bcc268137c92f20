package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// exactQuantile is the reference: the ceil(q*n)-th smallest of a sorted
// sample — the same rank convention HDRSnapshot.Quantile uses.
func exactQuantile(sorted []int64, q float64) int64 {
	rank := int(q*float64(len(sorted)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// relErr is |got-want| / max(want, 1).
func relErr(got, want int64) float64 {
	d := float64(got - want)
	if d < 0 {
		d = -d
	}
	den := float64(want)
	if den < 1 {
		den = 1
	}
	return d / den
}

// hdrDistributions are the sample shapes of the accuracy sweep: uniform,
// Zipf-skewed (a hot head and a long tail, like hot-key latencies) and
// bimodal (cache hit vs miss).
func hdrDistributions(rng *rand.Rand, n int) map[string][]int64 {
	uniform := make([]int64, n)
	for i := range uniform {
		uniform[i] = 1 + rng.Int63n(50_000_000) // 1ns .. 50ms
	}
	zipf := make([]int64, n)
	zg := rand.NewZipf(rng, 1.2, 1, 10_000_000)
	for i := range zipf {
		zipf[i] = 100 + int64(zg.Uint64())
	}
	bimodal := make([]int64, n)
	for i := range bimodal {
		if rng.Float64() < 0.9 {
			bimodal[i] = 20_000 + rng.Int63n(5_000) // ~25µs cache hits
		} else {
			bimodal[i] = 4_000_000 + rng.Int63n(1_000_000) // ~4ms misses
		}
	}
	return map[string][]int64{"uniform": uniform, "zipf": zipf, "bimodal": bimodal}
}

// TestHDRQuantileAccuracy is the satellite acceptance test: across three
// distribution shapes, every extracted quantile is within 1% relative
// error of the exact sorted-sample quantile.
func TestHDRQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	quantiles := []float64{0.5, 0.9, 0.95, 0.99, 0.999, 1.0}
	for name, vals := range hdrDistributions(rng, 50_000) {
		h := &HDR{}
		for _, v := range vals {
			h.Observe(v)
		}
		sorted := append([]int64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		snap := h.Snapshot()
		if snap.Count != int64(len(vals)) {
			t.Fatalf("%s: snapshot count %d, want %d", name, snap.Count, len(vals))
		}
		for _, q := range quantiles {
			got := snap.Quantile(q)
			want := exactQuantile(sorted, q)
			if e := relErr(got, want); e > 0.01 {
				t.Errorf("%s p%g: got %d, exact %d (rel err %.4f > 1%%)", name, q*100, got, want, e)
			}
		}
		// The reconstructed mean carries the same bounded error.
		var sum int64
		for _, v := range vals {
			sum += v
		}
		exactMean := float64(sum) / float64(len(vals))
		if e := math.Abs(snap.Mean()-exactMean) / exactMean; e > 0.01 {
			t.Errorf("%s mean: got %.1f, exact %.1f (rel err %.4f)", name, snap.Mean(), exactMean, e)
		}
		// Max is tracked exactly.
		if snap.Max != sorted[len(sorted)-1] {
			t.Errorf("%s max: got %d, want %d", name, snap.Max, sorted[len(sorted)-1])
		}
	}
}

// TestHDRMergeEqualsUnion is the mergeability contract: merging the
// snapshots of two independently observed streams yields bucket-for-
// bucket the snapshot of one histogram that observed the union.
func TestHDRMergeEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b, u := &HDR{}, &HDR{}, &HDR{}
	for i := 0; i < 20_000; i++ {
		v := 1 + rng.Int63n(int64(1)<<uint(10+rng.Intn(30)))
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		u.Observe(v)
	}
	merged := a.Snapshot()
	merged.Merge(b.Snapshot())
	union := u.Snapshot()
	if merged.Count != union.Count || merged.Sum != union.Sum || merged.Max != union.Max {
		t.Fatalf("merged (count %d sum %d max %d) != union (count %d sum %d max %d)",
			merged.Count, merged.Sum, merged.Max, union.Count, union.Sum, union.Max)
	}
	for i := range union.Counts {
		if merged.Counts[i] != union.Counts[i] {
			t.Fatalf("bucket %d: merged %d, union %d", i, merged.Counts[i], union.Counts[i])
		}
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if merged.Quantile(q) != union.Quantile(q) {
			t.Errorf("p%g: merged %d != union %d", q*100, merged.Quantile(q), union.Quantile(q))
		}
	}
	// Merging into a zero-value snapshot works (per-worker aggregation
	// starts from empty).
	var zero HDRSnapshot
	zero.Merge(a.Snapshot())
	zero.Merge(b.Snapshot())
	if zero.Count != union.Count || zero.Quantile(0.99) != union.Quantile(0.99) {
		t.Errorf("zero-based merge: count %d p99 %d, want %d / %d",
			zero.Count, zero.Quantile(0.99), union.Count, union.Quantile(0.99))
	}
}

// TestHDRConcurrentObserve hammers one histogram from many goroutines;
// the final count and sum must be exact (run under -race in make race).
func TestHDRConcurrentObserve(t *testing.T) {
	h := &HDR{}
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	if got, want := h.Count(), int64(workers*per); got != want {
		t.Fatalf("count %d, want %d", got, want)
	}
	if got, want := h.Snapshot().Max, int64(workers*per-1); got != want {
		t.Fatalf("max %d, want %d", got, want)
	}
}

// TestHDRNilSafety extends the package's nil-handle rule to the new type.
func TestHDRNilSafety(t *testing.T) {
	var r *Registry
	h := r.HDR("nil.latency")
	if h != nil {
		t.Fatal("nil registry returned a non-nil HDR handle")
	}
	h.Observe(5)
	h.ObserveDuration(time.Millisecond)
	if h.Count() != 0 || h.Quantile(0.99) != 0 {
		t.Fatal("nil HDR handle recorded something")
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil HDR snapshot non-empty")
	}
}

// TestHDRRegistrySnapshot checks the JSON export path: quantile stats
// appear under the registered key, and clamping handles edge values.
func TestHDRRegistrySnapshot(t *testing.T) {
	r := New()
	h := r.HDR("test.latency")
	if r.HDR("test.latency") != h {
		t.Fatal("re-registration minted a second histogram")
	}
	h.Observe(-5)            // clamps to 0
	h.Observe(1<<62 + 12345) // clamps to hdrMaxValue
	h.ObserveDuration(time.Microsecond)
	snap := r.Snapshot()
	st, ok := snap.HDR["test.latency"]
	if !ok {
		t.Fatalf("snapshot missing hdr key: %+v", snap.HDR)
	}
	if st.Count != 3 {
		t.Fatalf("count %d, want 3", st.Count)
	}
	if st.Max != hdrMaxValue {
		t.Fatalf("max %d, want clamp %d", st.Max, int64(hdrMaxValue))
	}
}
