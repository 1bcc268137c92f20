package obs

// This file is the registry's histogram: an HDR-style histogram with
// sub-power-of-two resolution. One bucket per power of two would let a
// p99 sit anywhere inside a bucket whose bounds are 2x apart, which is
// useless as an SLO gate. The HDR type splits every power of two into
// 2^hdrSubBits linear sub-buckets, bounding the relative quantile error
// at 2^-(hdrSubBits+1) (< 0.4%), while staying a fixed-size, lock-free,
// allocation-free structure.
//
// Latency keys (serve.answer.latency, serve.http.latency, the load
// harness's per-phase recorders) and magnitude keys (extsort.sort.rows)
// alike live here. Snapshots are mergeable — merge(snap a, snap b) is
// exactly the histogram of the union of observations — so per-worker
// recorders can aggregate without sharing a cache line.

import (
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// hdrSubBits is the number of linear sub-bucket bits per power of
	// two: 128 sub-buckets bound the relative error of any recorded
	// value (and so of any extracted quantile) at 1/256 < 0.4%.
	hdrSubBits = 7
	// hdrSubBuckets is the linear sub-bucket count per octave; values
	// below it are recorded exactly.
	hdrSubBuckets = 1 << hdrSubBits
	// hdrOctaves is the number of log-linear octaves above the exact
	// range: exponents hdrSubBits..63.
	hdrOctaves = 64 - hdrSubBits
	// hdrBuckets is the total bucket count.
	hdrBuckets = hdrSubBuckets + hdrOctaves*hdrSubBuckets
	// hdrMaxValue caps observations so bucket representatives never
	// overflow int64 (2^62-1 ns is ~146 years of latency — a clamp, not
	// a restriction).
	hdrMaxValue = 1<<62 - 1
)

// HDR is a high-dynamic-range histogram of non-negative int64
// observations (nanoseconds, by convention) with bounded relative error.
// The zero value is ready to use; all methods are safe for concurrent
// use and safe on a nil receiver.
type HDR struct {
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	counts [hdrBuckets]atomic.Int64
}

// hdrIndex maps a value to its bucket.
func hdrIndex(v int64) int {
	if v < hdrSubBuckets {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	sub := int(v>>(uint(e)-hdrSubBits)) & (hdrSubBuckets - 1)
	return hdrSubBuckets + (e-hdrSubBits)*hdrSubBuckets + sub
}

// hdrValue returns the representative value of bucket i: the midpoint,
// so the worst-case error against any member is half the bucket width.
func hdrValue(i int) int64 {
	if i < hdrSubBuckets {
		return int64(i)
	}
	oct := (i - hdrSubBuckets) / hdrSubBuckets
	sub := (i - hdrSubBuckets) % hdrSubBuckets
	e := uint(oct + hdrSubBits)
	low := int64(1)<<e + int64(sub)<<(e-hdrSubBits)
	width := int64(1) << (e - hdrSubBits)
	return low + width/2
}

// Observe folds one value into the histogram; values clamp to
// [0, hdrMaxValue]. Safe on a nil receiver.
func (h *HDR) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	if v > hdrMaxValue {
		v = hdrMaxValue
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.counts[hdrIndex(v)].Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveDuration records a duration in nanoseconds. Safe on a nil
// receiver.
func (h *HDR) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations (0 on a nil receiver).
func (h *HDR) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile extracts the q-quantile (0 < q <= 1) from the live histogram.
// See HDRSnapshot.Quantile for the contract.
func (h *HDR) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	return h.Snapshot().Quantile(q)
}

// Snapshot copies the histogram state for merging and quantile
// extraction. Concurrent Observe calls may straddle the copy; the
// snapshot is internally consistent (its Count equals the sum of its
// bucket counts). A nil receiver yields an empty snapshot.
func (h *HDR) Snapshot() HDRSnapshot {
	var s HDRSnapshot
	if h == nil {
		return s
	}
	s.Counts = make([]int64, hdrBuckets)
	for i := range h.counts {
		n := h.counts[i].Load()
		s.Counts[i] = n
		s.Count += n
		s.Sum += hdrValue(i) * n
	}
	s.Max = h.max.Load()
	return s
}

// HDRSnapshot is a point-in-time copy of an HDR histogram. The zero
// value is an empty snapshot ready to Merge into.
type HDRSnapshot struct {
	Count int64
	// Sum is approximate: it is reconstructed from bucket
	// representatives, so it carries the same bounded relative error as
	// the quantiles and stays exactly mergeable.
	Sum    int64
	Max    int64
	Counts []int64
}

// Merge folds o into s: the result is exactly the snapshot of the union
// of the two observation streams.
func (s *HDRSnapshot) Merge(o HDRSnapshot) {
	if o.Count == 0 {
		return
	}
	if s.Counts == nil {
		s.Counts = make([]int64, hdrBuckets)
	}
	for i, n := range o.Counts {
		s.Counts[i] += n
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Quantile extracts the q-quantile: the representative value of the
// bucket holding the ceil(q*Count)-th smallest observation. q clamps to
// (0, 1]; an empty snapshot yields 0. The result is within half a
// bucket width (relative error < 2^-(hdrSubBits+1)) of the exact
// sorted-sample quantile.
func (s HDRSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q*float64(s.Count) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for i, n := range s.Counts {
		cum += n
		if cum >= rank {
			return hdrValue(i)
		}
	}
	return s.Max
}

// Mean returns the (bucket-representative) mean observation.
func (s HDRSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// HDRStats is the exported JSON form of one HDR histogram: the standard
// latency quantiles, in the unit observed (nanoseconds by convention).
type HDRStats struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	P99   int64 `json:"p99"`
	P999  int64 `json:"p999"`
	Max   int64 `json:"max"`
}

// Stats summarizes the snapshot.
func (s HDRSnapshot) Stats() HDRStats {
	return HDRStats{
		Count: s.Count,
		Sum:   s.Sum,
		P50:   s.Quantile(0.50),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
		P999:  s.Quantile(0.999),
		Max:   s.Max,
	}
}

// HDR returns the HDR histogram registered under name, creating it on
// first use. A nil registry returns a nil (no-op) handle.
func (r *Registry) HDR(name string) *HDR {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hdrs[name]
	if !ok {
		h = &HDR{}
		r.hdrs[name] = h
	}
	return h
}
