package serve

import (
	"io"
	"sync/atomic"

	"x3/internal/cellfile"
	"x3/internal/costmodel"
	"x3/internal/cube"
	"x3/internal/lattice"
)

// selectBudget prices every cuboid of res by the data bytes a cell-file
// writer encodes it into and runs the greedy benefit-per-byte selection
// under opt.SpaceBudget. weights and discount carry live workload stats
// into the model (nil/0 at build time, when no queries have been observed
// yet).
func selectBudget(lat *lattice.Lattice, props cube.Props, res *cube.Result, baseRows int, opt Options, weights []float64, discount float64) (map[uint32]bool, []costmodel.Decision, error) {
	cands := make([]costmodel.Candidate, 0, lat.Size())
	for _, p := range lat.Points() {
		pid := lat.ID(p)
		w := cellfile.NewWriter(io.Discard, opt.BlockCells)
		for _, key := range res.Keys(p) {
			st, _ := res.State(p, key)
			if err := w.Cell(pid, key, st); err != nil {
				return nil, nil, err
			}
		}
		if err := w.Finish(); err != nil {
			return nil, nil, err
		}
		cands = append(cands, costmodel.Candidate{PID: pid, Cells: w.Cells(), Bytes: w.DataBytes()})
	}
	rows := int64(baseRows)
	if rows < 1 {
		rows = 1
	}
	pids, decisions, err := costmodel.Select(lat, props, cands, costmodel.Config{
		Budget:       opt.SpaceBudget,
		Weights:      weights,
		BaseCost:     rows,
		ScanDiscount: discount,
	})
	if err != nil {
		return nil, nil, err
	}
	keep := make(map[uint32]bool, len(pids))
	for _, pid := range pids {
		keep[pid] = true
	}
	return keep, decisions, nil
}

// budgetKeep re-runs the cost-model selection at compaction time: the
// candidates are the currently-kept cuboids (only cells already in the
// generation files can survive a merge — a dropped cuboid needs a rebuild
// to come back), priced from the live files' encoded bytes and weighted by
// the observed per-cuboid query counts and cache hit rate. Returns the new
// keep list (sorted), its set form, and the decisions. Caller holds
// refreshMu; the swappable state is read under s.mu.
func (s *Store) budgetKeep(gens []*cellfile.IndexedReader) ([]uint32, map[uint32]bool, []costmodel.Decision, error) {
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
	pids, decisions, err := costmodel.Select(s.lat, props, cands, costmodel.Config{
		Budget:       s.spaceBudget,
		Weights:      s.queryWeights(),
		BaseCost:     baseRows,
		ScanDiscount: s.cacheDiscount(),
	})
	if err != nil {
		return nil, nil, nil, err
	}
	set := make(map[uint32]bool, len(pids))
	for _, pid := range pids {
		set[pid] = true
	}
	return pids, set, decisions, nil
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
	for _, pid := range s.matPoints() {
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
