package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of sorted by linear
// interpolation between the two closest ranks; 0 for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sortedCopy returns vals sorted ascending without touching vals.
func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of vals (mean of the two middle values
// for an even count).
func median(vals []float64) float64 { return percentile(sortedCopy(vals), 0.5) }

// quartiles returns the first quartile, median and third quartile of vals
// the way Python's statistics.quantiles(vals, n=4) does (the "exclusive"
// method: rank q*(n+1), clamped to the sample) — the rule the driver
// applies to this benchmark's own runs, so calibration agrees with it.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance of vals as a share of their
// median: the run-to-run noise figure every bound is compared against.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// minWindow is the fewest samples a tail window may hold: a p99 with
// twenty samples beyond it.
const minWindow = 2000

// windowedTail cuts samples (in completion order) into five equal
// consecutive windows — three or one when there are too few samples for
// every window to hold minWindow — takes each window's q-quantile, and
// returns the median of those. One stall — a GC cycle, a neighbour's burst
// — lands in one window and moves one of the values, so the reported tail
// is the tail a typical stretch of the run shows, not its worst moment.
// Short samples fall back to the plain quantile of the whole run: with a
// few hundred samples per window, whether a window's p99 is a rare stall
// or an ordinary slow operation is a coin toss, and the median of five
// coin tosses differs from run to run. beyond is the number of samples
// past the quantile in one window.
func windowedTail(samples []float64, q float64) (tail float64, beyond int) {
	tails := windowQuantiles(samples, q)
	if len(tails) == 0 {
		return 0, 0
	}
	return median(tails), int(float64(len(samples)/len(tails)) * (1 - q))
}

// windowQuantiles returns the q-quantile of each window windowedTail cuts.
func windowQuantiles(samples []float64, q float64) []float64 {
	n := len(samples)
	if n == 0 {
		return nil
	}
	w := 1
	switch {
	case n >= 5*minWindow:
		w = 5
	case n >= 3*minWindow:
		w = 3
	}
	out := make([]float64, 0, w)
	for i := 0; i < w; i++ {
		out = append(out, percentile(sortedCopy(samples[i*n/w:(i+1)*n/w]), q))
	}
	return out
}
