package cube

import (
	"fmt"

	"x3/internal/agg"
	"x3/internal/match"
)

// BUCParallel is plain (overlap-tolerant, always-correct) BUC with the
// top level of the recursive partitioning fanned out across the shared
// worker pool. Each top-level value partition roots an independent
// sub-lattice computation, so workers share only the read-only fact table
// and the batched sink. This is a this-library extension beyond the
// paper, which evaluates single-threaded algorithms only.
type BUCParallel struct {
	// Workers is the fan-out; 0 selects Input.Workers, then GOMAXPROCS.
	Workers int
}

// Name implements Algorithm.
func (BUCParallel) Name() string { return "BUCPAR" }

// Requires implements Algorithm: like BUC it needs nothing.
func (BUCParallel) Requires() Requirements { return Requirements{} }

// parallelUnit is one top-level chain: axis j fixed to value v at its most
// relaxed live state, over the facts carrying v.
type parallelUnit struct {
	axis  int
	state int
	value match.ValueID
	items []int32
}

// Run implements Algorithm.
func (b BUCParallel) Run(in *Input, sink Sink) (Stats, error) {
	st := Stats{Algorithm: b.Name()}
	defer in.observe(&st)()
	workers := resolveWorkers(b.Workers, in.Workers)
	in.budget() // resolve the lazy default before workers share it

	// Load the shared fact table once (same budget accounting as BUC).
	loader := &bucRun{in: in, sink: sink, st: &st, d: in.Lattice.NumAxes()}
	if err := loader.load(); err != nil {
		return st, err
	}
	defer in.budget().Release(loader.reserved)
	facts := loader.facts
	d := in.Lattice.NumAxes()

	baseMissing := 0
	basePoint := make([]uint8, d)
	for a := 0; a < d; a++ {
		lad := in.Lattice.Ladders[a]
		if lad.HasDeleted() {
			basePoint[a] = uint8(lad.Len() - 1)
		} else {
			baseMissing++
		}
	}
	items := make([]int32, len(facts))
	for i := range items {
		items[i] = int32(i)
	}

	// The bottom cell (nothing chosen) is emitted once, serially, before
	// the pool starts.
	if baseMissing == 0 && int64(len(items)) >= in.minSupport() && len(items) > 0 {
		var s agg.State
		for _, it := range items {
			s.Add(facts[it].measure)
		}
		if err := sink.Cell(in.Lattice.ID(basePoint), nil, s); err != nil {
			return st, err
		}
		st.Cells++
	}

	// Build the top-level units: for every axis, every value partition at
	// its most relaxed live state.
	var units []parallelUnit
	for j := 0; j < d; j++ {
		s := in.Lattice.Ladders[j].MostRelaxedLive()
		parts := make(map[match.ValueID][]int32)
		for _, it := range items {
			for _, v := range facts[it].axes[j][s] {
				parts[v] = append(parts[v], it)
			}
		}
		for v, part := range parts {
			units = append(units, parallelUnit{axis: j, state: s, value: v, items: part})
		}
	}

	// Each worker owns a cloned traversal state, local stats and a batched
	// sink front-end; units are seeded round-robin and stolen when queues
	// drain unevenly.
	batcher := newSinkBatcher(sink)
	locals := make([]Stats, workers)
	outs := make([]*batchSink, workers)
	clones := make([]*bucRun, workers)
	for w := 0; w < workers; w++ {
		outs[w] = batcher.worker()
		clone := &bucRun{
			in:         in,
			sink:       outs[w],
			st:         &locals[w],
			facts:      facts,
			d:          d,
			disjointAt: func(_, _ int) bool { return false },
			point:      make([]uint8, d),
			missingLND: baseMissing,
		}
		copy(clone.point, basePoint)
		clones[w] = clone
	}
	pool := newWorkerPool(in.Ctx, workers)
	for i := range units {
		u := units[i]
		pool.submit(i, func(w int) error {
			clone := clones[w]
			if !in.Lattice.Ladders[u.axis].HasDeleted() {
				clone.missingLND = baseMissing - 1
			} else {
				clone.missingLND = baseMissing
			}
			// Units for axis j must not descend into axes < j (those
			// combinations are owned by the lower-axis units), which
			// chain's rec(items, j+1) recursion guarantees.
			return clone.chain(u.items, u.axis, u.state, u.value)
		})
	}
	runErr := pool.wait()
	if runErr == nil {
		for _, o := range outs {
			if err := o.flush(); err != nil {
				runErr = err
				break
			}
		}
	}
	for _, s := range locals {
		st.Cells += s.Cells
		st.Sorts += s.Sorts
		st.RowsSorted += s.RowsSorted
	}
	pool.flushObs(in.Reg)
	batcher.flushObs(in.Reg)
	st.Passes = 1
	st.PeakBytes = in.budget().HighWater()
	if runErr != nil {
		return st, fmt.Errorf("cube: BUCPAR worker: %w", runErr)
	}
	return st, nil
}

var _ Algorithm = BUCParallel{}
