// Package costmodel picks which cuboids of a relaxed-cube lattice to
// materialize under a budget — the paper's §3.6–3.7 schema-customized
// cube turned adaptive. It is the one view selector: a greedy
// benefit-per-byte model in the HRU tradition that answers "which
// cuboids fit in B bytes and repay them best" when candidates are priced
// with the columnar encoder's real byte sizes and weighted by the live
// per-cuboid query counts the serving layer collects, and "which k
// cuboids" (HRU's count budget) when every candidate weighs one unit and
// the budget is k.
//
// The model: answering target cuboid t costs cost(t) scan units — the
// cheapest materialized cuboid that can safely derive t (cube.PathSafe,
// the same routing the query planner uses), or the base-fact recompute
// cost when none can. Materializing candidate c drops cost(t) to c's cell
// count for every t it can answer; the benefit of picking c is the
// weighted total cost reduction, and the greedy loop repeatedly takes the
// candidate with the highest benefit per byte that still fits the
// remaining budget. Every verdict is recorded as a Decision so the server
// can expose *why* each cuboid is or is not materialized.
//
// Determinism: the selection runs inside serving maintenance (compaction
// re-runs it under the store's budget), so everything iterates in sorted
// candidate order — no map ranging anywhere (the detiter analyzer checks
// the serve-side callers).
package costmodel

import (
	"fmt"
	"sort"

	"x3/internal/cube"
	"x3/internal/lattice"
)

// Candidate is one materializable cuboid.
type Candidate struct {
	// PID is the cuboid's dense lattice id.
	PID uint32
	// Cells is the cuboid's cell count — the scan cost of answering from
	// it once materialized.
	Cells int64
	// Bytes is the budget the cuboid consumes: its encoded size under a
	// byte budget, or 1 under a count budget.
	Bytes int64
}

// Config tunes a selection run.
type Config struct {
	// Budget is the budget in the candidates' Bytes units; <= 0 means
	// unlimited (every candidate with positive benefit is picked).
	Budget int64
	// Weights holds one query weight per lattice point, indexed by pid;
	// nil weights every target equally. The serving layer feeds smoothed
	// per-cuboid query counts here.
	Weights []float64
	// BaseCost is the scan cost of answering a target from the base facts
	// (the fallback when no safe materialized ancestor exists); floored
	// at 1.
	BaseCost int64
	// ScanDiscount scales materialized scan costs relative to BaseCost,
	// reflecting how much cheaper a cached columnar block scan is than a
	// base recompute; 0 means 1 (no discount). The serving layer derives
	// it from the observed serve.cache.* hit rate.
	ScanDiscount float64
}

// Decision explains the selector's verdict on one candidate.
type Decision struct {
	PID            uint32  `json:"pid"`
	Materialize    bool    `json:"materialize"`
	Cells          int64   `json:"cells"`
	Bytes          int64   `json:"bytes"`
	Weight         float64 `json:"weight"`
	Benefit        float64 `json:"benefit,omitempty"`
	BenefitPerByte float64 `json:"benefit_per_byte,omitempty"`
	// Round is the 1-based greedy pick order (0 = not picked).
	Round int `json:"round,omitempty"`
	// Reason is one of "picked", "no-benefit", "over-budget".
	Reason string `json:"reason"`
}

// Select runs the greedy benefit-per-byte selection and returns the chosen
// pids (sorted ascending) plus a Decision per candidate (sorted by pid).
// Candidates must have distinct pids; props certifies which derivations
// are safe (nil means only self-answering counts, exactly as the planner
// treats it).
func Select(lat *lattice.Lattice, props cube.Props, cands []Candidate, cfg Config) ([]uint32, []Decision, error) {
	cands = append([]Candidate(nil), cands...)
	sort.Slice(cands, func(i, j int) bool { return cands[i].PID < cands[j].PID })
	for i := 1; i < len(cands); i++ {
		if cands[i].PID == cands[i-1].PID {
			return nil, nil, fmt.Errorf("costmodel: duplicate candidate pid %d", cands[i].PID)
		}
	}
	targets := lat.Points()
	baseCost := cfg.BaseCost
	if baseCost < 1 {
		baseCost = 1
	}
	discount := cfg.ScanDiscount
	if discount <= 0 || discount > 1 {
		discount = 1
	}
	weight := func(pid uint32) float64 {
		if int(pid) >= len(cfg.Weights) {
			return 1
		}
		w := cfg.Weights[pid]
		if w <= 0 {
			return 1
		}
		return w
	}
	// effCost is candidate i's scan cost once materialized.
	effCost := func(c Candidate) float64 {
		e := float64(c.Cells) * discount
		if e < 1 {
			e = 1
		}
		return e
	}

	// answers[i] lists the target ids candidate i can serve: itself, plus
	// every coarser target reachable purely over safe relaxation edges.
	answers := make([][]uint32, len(cands))
	for i, c := range cands {
		from := lat.FromID(c.PID)
		for _, t := range targets {
			tid := lat.ID(t)
			if tid == c.PID || cube.PathSafe(lat, props, from, t) {
				answers[i] = append(answers[i], tid)
			}
		}
	}

	cost := make([]float64, lat.Size())
	for _, t := range targets {
		cost[lat.ID(t)] = float64(baseCost)
	}
	benefit := func(i int) float64 {
		var b float64
		for _, tid := range answers[i] {
			if d := cost[tid] - effCost(cands[i]); d > 0 {
				b += weight(tid) * d
			}
		}
		return b
	}

	decisions := make([]Decision, len(cands))
	for i, c := range cands {
		decisions[i] = Decision{PID: c.PID, Cells: c.Cells, Bytes: c.Bytes, Weight: weight(c.PID)}
	}
	picked := make([]bool, len(cands))
	remaining := cfg.Budget
	unlimited := cfg.Budget <= 0
	var keep []uint32
	for round := 1; ; round++ {
		best, bestBPB, bestBenefit := -1, 0.0, 0.0
		for i, c := range cands {
			if picked[i] {
				continue
			}
			if !unlimited && c.Bytes > remaining {
				continue
			}
			b := benefit(i)
			if b <= 0 {
				continue
			}
			bytes := c.Bytes
			if bytes < 1 {
				bytes = 1
			}
			bpb := b / float64(bytes)
			// Ties break toward the larger absolute benefit, then the
			// fewer cells, then the lower pid — the candidate slice is
			// pid-sorted, so "first wins" is the lower pid.
			if best < 0 || bpb > bestBPB || (bpb == bestBPB && (b > bestBenefit ||
				b == bestBenefit && c.Cells < cands[best].Cells)) {
				best, bestBPB, bestBenefit = i, bpb, b
			}
		}
		if best < 0 {
			break
		}
		picked[best] = true
		keep = append(keep, cands[best].PID)
		if !unlimited {
			remaining -= cands[best].Bytes
		}
		d := &decisions[best]
		d.Materialize = true
		d.Round = round
		d.Benefit = bestBenefit
		d.BenefitPerByte = bestBPB
		d.Reason = "picked"
		e := effCost(cands[best])
		for _, tid := range answers[best] {
			if e < cost[tid] {
				cost[tid] = e
			}
		}
	}
	// Explain the leftovers: a candidate that still had benefit was only
	// blocked by the budget.
	for i := range cands {
		if picked[i] {
			continue
		}
		if benefit(i) > 0 {
			decisions[i].Reason = "over-budget"
		} else {
			decisions[i].Reason = "no-benefit"
		}
	}
	sort.Slice(keep, func(i, j int) bool { return keep[i] < keep[j] })
	return keep, decisions, nil
}
