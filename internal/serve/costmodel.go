package serve

import (
	"io"
	"sync/atomic"

	"x3/internal/cellfile"
	"x3/internal/costmodel"
	"x3/internal/cube"
	"x3/internal/lattice"
)

// selectKeep picks the cuboids a build materializes, from the sink's
// sorted cells: every point, or the cost model's greedy pick under the
// safety properties — within opt.SpaceBudget bytes, each cuboid priced by
// the data bytes a cell-file writer of its own encodes it into, or else
// at most opt.Views cuboids, each weighing one. No queries have been
// observed at build time, so no workload weights or scan discount apply;
// only a byte budget reports its decisions.
func selectKeep(lat *lattice.Lattice, props cube.Props, sink *cellfile.IndexedSink, baseRows int, opt Options) (map[uint32]bool, []costmodel.Decision, error) {
	keep := make(map[uint32]bool)
	if opt.SpaceBudget <= 0 && (opt.Views <= 0 || opt.Views >= lat.Size()) {
		for _, p := range lat.Points() {
			keep[lat.ID(p)] = true
		}
		return keep, nil, nil
	}
	byBytes := opt.SpaceBudget > 0
	cells, bytes, err := tally(sink, lat.Size(), opt.BlockCells, byBytes)
	if err != nil {
		return nil, nil, err
	}
	cands := make([]costmodel.Candidate, 0, lat.Size())
	for _, p := range lat.Points() {
		pid := lat.ID(p)
		c := costmodel.Candidate{PID: pid, Cells: cells[pid], Bytes: 1}
		if byBytes {
			c.Bytes = bytes[pid]
		}
		cands = append(cands, c)
	}
	cfg := costmodel.Config{Budget: int64(opt.Views), BaseCost: int64(baseRows)}
	if byBytes {
		cfg.Budget = opt.SpaceBudget
	}
	pids, decisions, err := costmodel.Select(lat, props, cands, cfg)
	for _, pid := range pids {
		keep[pid] = true
	}
	if !byBytes {
		decisions = nil
	}
	return keep, decisions, err
}

// tally counts the sink's cells per cuboid and, when price is set, the
// data bytes a writer of blockCells cells per block encodes each cuboid
// into on its own; both are indexed by pid.
func tally(sink *cellfile.IndexedSink, points, blockCells int, price bool) (cells, bytes []int64, err error) {
	cells, bytes = make([]int64, points), make([]int64, points)
	var w *cellfile.Writer
	var cur uint32
	finish := func() error {
		if w == nil {
			return nil
		}
		err := w.Finish()
		bytes[cur] = w.DataBytes()
		return err
	}
	err = sink.Sorted(func(c *cellfile.Cell) error {
		cells[c.Point]++
		if !price {
			return nil
		}
		if w == nil || c.Point != cur {
			if err := finish(); err != nil {
				return err
			}
			w, cur = cellfile.NewWriter(io.Discard, blockCells), c.Point
		}
		return w.Cell(c.Point, c.Key, c.State)
	})
	if err == nil {
		err = finish()
	}
	return cells, bytes, err
}

// budgetKeep re-runs the cost-model selection at compaction time: the
// candidates are the currently-kept cuboids (only cells already in the
// generation files can survive a merge — a dropped cuboid needs a rebuild
// to come back), priced from the live files' encoded bytes and weighted by
// the observed per-cuboid query counts and cache hit rate. Returns the new
// keep list (sorted) and the decisions. Caller holds refreshMu; the
// swappable state is read under s.mu.
func (s *Store) budgetKeep(gens []*cellfile.IndexedReader) ([]uint32, []costmodel.Decision, error) {
	s.mu.RLock()
	props := s.props
	baseRows := int64(s.base.NumFacts())
	s.mu.RUnlock()
	if baseRows < 1 {
		baseRows = 1
	}
	cands := make([]costmodel.Candidate, 0, len(s.man.Keep))
	for _, pid := range s.man.Keep {
		var cells, bytes int64
		for _, g := range gens {
			n, _ := g.CuboidCells(pid)
			cells += n
			// Pro-rate the generation's encoded data bytes by cell share:
			// blocks span cuboid boundaries, so per-cuboid bytes are an
			// estimate, not an exact split.
			if total := g.NumCells(); total > 0 {
				bytes += n * g.DataBytes() / total
			}
		}
		cands = append(cands, costmodel.Candidate{PID: pid, Cells: cells, Bytes: bytes})
	}
	return costmodel.Select(s.lat, props, cands, costmodel.Config{
		Budget:       s.spaceBudget,
		Weights:      s.queryWeights(),
		BaseCost:     baseRows,
		ScanDiscount: s.cacheDiscount(),
	})
}

// recordQuery bumps the per-cuboid query counter the cost model reads as
// benefit weights. pid has been validated against the lattice.
func (s *Store) recordQuery(pid uint32) {
	if int(pid) < len(s.qcounts) {
		atomic.AddInt64(&s.qcounts[pid], 1)
	}
}

// queryWeights snapshots the per-cuboid query counts as cost-model
// weights, add-one smoothed so never-queried cuboids keep a floor weight
// and the selection stays total.
func (s *Store) queryWeights() []float64 {
	w := make([]float64, len(s.qcounts))
	for i := range s.qcounts {
		w[i] = 1 + float64(atomic.LoadInt64(&s.qcounts[i]))
	}
	return w
}

// cacheDiscount derives the cost model's ScanDiscount from the observed
// block-cache hit rate: a scan that hits cache is ~free next to a base
// recompute, so a hot cache shrinks the effective cost of materialized
// scans. With no observations (or no registry) the discount is 1.
func (s *Store) cacheDiscount() float64 {
	hits := s.reg.Counter("serve.cache.hits").Value()
	misses := s.reg.Counter("serve.cache.misses").Value()
	total := hits + misses
	if total == 0 {
		return 1
	}
	// Linear blend: all-miss → 1, all-hit → 0.1 (cached scans still cost
	// something — decode and merge are not free).
	rate := float64(hits) / float64(total)
	return 1 - 0.9*rate
}

// Decisions returns the cost-model verdicts from the most recent
// materialization selection (build or budgeted compaction), sorted by
// cuboid id. Empty when the store runs without a space budget.
func (s *Store) Decisions() []costmodel.Decision {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]costmodel.Decision(nil), s.decisions...)
}

// CuboidStatus describes one lattice point for the /cuboids endpoint:
// whether it is materialized, its physical cell count, its live query
// count, and — when the store runs under a space budget — the cost
// model's verdict.
type CuboidStatus struct {
	PID          uint32              `json:"pid"`
	Label        string              `json:"label"`
	Materialized bool                `json:"materialized"`
	Cells        int64               `json:"cells,omitempty"`
	Queries      int64               `json:"queries,omitempty"`
	Decision     *costmodel.Decision `json:"decision,omitempty"`
}

// CuboidReport lists every lattice point in id order with its
// materialization state, physical cell count, observed query count, and
// the latest cost-model decision (if the store runs under a budget).
func (s *Store) CuboidReport() []CuboidStatus {
	s.mu.RLock()
	defer s.mu.RUnlock()
	mat := make(map[uint32]bool)
	for _, pid := range s.keepSorted {
		mat[pid] = true
	}
	byPID := make(map[uint32]*costmodel.Decision, len(s.decisions))
	for i := range s.decisions {
		byPID[s.decisions[i].PID] = &s.decisions[i]
	}
	out := make([]CuboidStatus, 0, s.lat.Size())
	for _, p := range s.lat.Points() {
		pid := s.lat.ID(p)
		cs := CuboidStatus{PID: pid, Label: s.lat.Label(p), Materialized: mat[pid]}
		if cs.Materialized {
			cs.Cells = s.matCells(pid)
		}
		if int(pid) < len(s.qcounts) {
			cs.Queries = atomic.LoadInt64(&s.qcounts[pid])
		}
		if d, ok := byPID[pid]; ok {
			dc := *d
			cs.Decision = &dc
		}
		out = append(out, cs)
	}
	return out
}
