package serve

import (
	"context"
	"fmt"
	"sort"
	"time"

	"x3/internal/agg"
	"x3/internal/cellfile"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/views"
)

// ctxCheckEvery is the cancellation-check granularity of the serving
// layer's tight loops (base-fact recomputation).
const ctxCheckEvery = 4096

// PlanKind says how a query was answered.
type PlanKind int

const (
	// PlanDirect reads the target cuboid straight from the indexed store.
	PlanDirect PlanKind = iota
	// PlanRollup re-aggregates a finer materialized cuboid whose every
	// relaxation step to the target is safe.
	PlanRollup
	// PlanBase recomputes the target cuboid from the base facts — the
	// fallback when no safe materialized ancestor exists.
	PlanBase
)

// String implements fmt.Stringer.
func (k PlanKind) String() string {
	switch k {
	case PlanDirect:
		return "direct"
	case PlanRollup:
		return "rollup"
	case PlanBase:
		return "base"
	}
	return fmt.Sprintf("plan(%d)", int(k))
}

// Query addresses one target cuboid with optional equality constraints.
// A fully constrained query (every live axis pinned) is a point lookup; a
// partially constrained one is a slice; an unconstrained one streams the
// whole cuboid — which, for a coarse target, is exactly a roll-up query.
type Query struct {
	// Point is the target cuboid.
	Point lattice.Point
	// Where pins live axes of Point (by axis index) to required values;
	// nil or empty answers the whole cuboid.
	Where map[int]match.ValueID
}

// Row is one answered cell: the group key over the target's live axes and
// the aggregate state (callers pick the aggregate via State.Final).
type Row struct {
	Key   []match.ValueID
	State agg.State
}

// Answer is the planner's result.
type Answer struct {
	Plan PlanKind
	// From is the materialized cuboid the answer was served from
	// (Direct and Rollup plans only).
	From lattice.Point
	// Rows are the matching cells, sorted by key.
	Rows []Row
	// Degraded reports that the fast indexed path failed (corruption,
	// truncation, exhausted read retries) and the answer came from a
	// fallback: a sequential verified re-scan of the cell file, or —
	// when Plan is PlanBase despite a materialized target — a full
	// recomputation from the base facts.
	Degraded bool
}

// Answer plans and executes one query under ctx (nil means no deadline).
// It holds the store's read lock for the whole execution, so a concurrent
// refresh never swaps state under a half-answered query. Cancellation
// surfaces as an error wrapping ctx.Err(); malformed queries wrap
// ErrBadRequest.
func (s *Store) Answer(ctx context.Context, q Query) (*Answer, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	s.mu.RLock()
	defer s.mu.RUnlock()

	if err := s.lat.Validate(q.Point); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	live := s.lat.LiveAxes(q.Point)
	liveSet := make(map[int]bool, len(live))
	for _, a := range live {
		liveSet[a] = true
	}
	// Ascending axis order, not map order: when several constrained axes
	// are dead at this point, every run must reject the same one.
	for _, a := range sortedWhereAxes(q.Where) {
		if !liveSet[a] {
			return nil, fmt.Errorf("%w: axis %d is not live at %s", ErrBadRequest, a, s.lat.Label(q.Point))
		}
	}

	s.recordQuery(s.lat.ID(q.Point))
	ans, err := s.execute(ctx, q, live)
	if err != nil {
		return nil, err
	}
	s.reg.Counter("serve.queries").Inc()
	s.reg.Counter("serve.plan." + ans.Plan.String()).Inc()
	s.reg.Counter("serve.rows").Add(int64(len(ans.Rows)))
	s.reg.Timer("serve.answer").Observe(time.Since(start))
	s.reg.HDR("serve.answer.latency").ObserveDuration(time.Since(start))
	return ans, nil
}

// plan picks the cheapest materialized cuboid that can answer the target
// safely, or nil for base-fact recomputation.
func (s *Store) plan(target lattice.Point) (from lattice.Point, cost int64) {
	targetID := s.lat.ID(target)
	var (
		best     lattice.Point
		bestCost int64 = -1
		bestID   uint32
	)
	for _, pid := range s.matPoints() {
		cells := s.matCells(pid)
		if bestCost >= 0 && (cells > bestCost || (cells == bestCost && pid >= bestID)) {
			continue // cannot beat the incumbent; skip the safety walk
		}
		p := s.lat.FromID(pid)
		if pid != targetID && !views.PathSafe(s.lat, s.props, p, target) {
			continue
		}
		best, bestCost, bestID = p, cells, pid
	}
	return best, bestCost
}

// execute routes the query to its plan and runs it through the fallback
// ladder: the fast indexed read, then a sequential verified re-scan of
// the cell file, then recomputation from the base facts — which never
// touch the file, so a corrupt store degrades to slow-but-correct
// answers instead of serving garbage or going dark.
func (s *Store) execute(ctx context.Context, q Query, live []int) (*Answer, error) {
	from, _ := s.plan(q.Point)
	if from == nil {
		rows, err := s.answerFromBase(ctx, q, live)
		if err != nil {
			return nil, err
		}
		return &Answer{Plan: PlanBase, Rows: rows}, nil
	}
	var (
		rows     []Row
		degraded bool
		err      error
	)
	plan := PlanRollup
	if s.lat.ID(from) == s.lat.ID(q.Point) {
		plan = PlanDirect
		rows, degraded, err = s.answerDirect(ctx, q, live)
	} else {
		rows, degraded, err = s.answerRollup(ctx, q, live, from)
	}
	if err != nil {
		if isCancellation(err) {
			return nil, err
		}
		// Final rung: the materialized file is unreadable even by the
		// degraded scan. Base facts live in memory, so this cannot be
		// poisoned by the same corruption.
		s.reg.Counter("serve.degraded.base").Inc()
		rows, berr := s.answerFromBase(ctx, q, live)
		if berr != nil {
			return nil, berr
		}
		return &Answer{Plan: PlanBase, Rows: rows, Degraded: true}, nil
	}
	return &Answer{Plan: plan, From: from, Rows: rows, Degraded: degraded}, nil
}

// eachCell streams cuboid pid's cells of one generation file to fn with
// the degraded-read ladder: the indexed path first (its own bounded
// retries included), and on a data fault a sequential, cache-bypassing,
// checksum-verified scan after reset() clears whatever fn accumulated.
// Cancellations pass through; a scan that also fails reports both
// causes, wrapping the scan's sentinel.
func (s *Store) eachCell(ctx context.Context, rdr *cellfile.IndexedReader, pid uint32, reset func(), fn func(cellfile.Cell) error) (degraded bool, err error) {
	err = rdr.EachCuboidCtx(ctx, pid, fn)
	if err == nil || isCancellation(err) {
		return false, err
	}
	s.reg.Counter("serve.degraded.scan").Inc()
	reset()
	serr := rdr.ScanCuboid(ctx, pid, fn)
	if serr == nil || isCancellation(serr) {
		return true, serr
	}
	return true, fmt.Errorf("serve: cuboid %d unreadable (%w); degraded scan: %w", pid, err, serr)
}

// generations returns the open generation readers, base first then
// deltas oldest-first, under a held read lock. Single-file stores have
// exactly one.
func (s *Store) generations() []*cellfile.IndexedReader {
	if len(s.deltas) == 0 {
		return []*cellfile.IndexedReader{s.rdr}
	}
	gens := make([]*cellfile.IndexedReader, 0, 1+len(s.deltas))
	gens = append(gens, s.rdr)
	return append(gens, s.deltas...)
}

// eachMemCell streams the memtable's cells for cuboid pid (ladder
// stores; a no-op otherwise), adapting them to the cell shape the
// generation readers produce.
func (s *Store) eachMemCell(pid uint32, fn func(cellfile.Cell) error) error {
	if s.mem == nil {
		return nil
	}
	return s.mem.EachCuboid(pid, func(key []match.ValueID, st agg.State) error {
		return fn(cellfile.Cell{Point: pid, Key: key, State: st})
	})
}

// answerDirect streams the materialized target cuboid, filtering, when it
// lives in one generation file and the memtable is empty: the file's own
// sort order is then the answer. Otherwise same-group cells from several
// generations must be re-aggregated, which is the roll-up merge under the
// identity projection.
func (s *Store) answerDirect(ctx context.Context, q Query, live []int) ([]Row, bool, error) {
	if len(s.deltas) > 0 || (s.mem != nil && s.mem.Cells() > 0) {
		return s.answerRollup(ctx, q, live, q.Point)
	}
	var rows []Row
	degraded, err := s.eachCell(ctx, s.rdr, s.lat.ID(q.Point), func() { rows = rows[:0] }, func(c cellfile.Cell) error {
		for i, a := range live {
			if want, ok := q.Where[a]; ok && c.Key[i] != want {
				return nil
			}
		}
		key := make([]match.ValueID, len(c.Key))
		copy(key, c.Key)
		rows = append(rows, Row{Key: key, State: c.State})
		return nil
	})
	return rows, degraded, err // already in key order: the file is sorted
}

// answerRollup streams the finer materialized cuboid `from` from every
// generation and the memtable and merges its cells into the target's
// coarser groups. Safe relaxation steps make this exact: across a ladder
// state step the cells coincide, and across an LND step the dropped axis's
// groups partition the facts, so aggregate-state merging (internal/agg)
// reproduces the target cuboid. With from equal to the target the
// projection is the identity and the merge only re-aggregates same-group
// cells across generations.
func (s *Store) answerRollup(ctx context.Context, q Query, live []int, from lattice.Point) ([]Row, bool, error) {
	fromLive := s.lat.LiveAxes(from)
	// proj[i] is the position within from's key of the target's i-th
	// live axis.
	proj := make([]int, len(live))
	for i, a := range live {
		pos := -1
		for j, fa := range fromLive {
			if fa == a {
				pos = j
				break
			}
		}
		if pos < 0 {
			return nil, false, fmt.Errorf("serve: internal: axis %d live at %s but not at finer %s",
				a, s.lat.Label(q.Point), s.lat.Label(from))
		}
		proj[i] = pos
	}
	fromPid := s.lat.ID(from)
	groups := make(map[string]agg.State)
	key := make([]match.ValueID, len(live))
	var buf []byte
	accumulate := func(into map[string]agg.State) func(cellfile.Cell) error {
		return func(c cellfile.Cell) error {
			for i := range live {
				key[i] = c.Key[proj[i]]
			}
			for i, a := range live {
				if want, ok := q.Where[a]; ok && key[i] != want {
					return nil
				}
			}
			buf = packKey(buf[:0], key)
			st := into[string(buf)]
			st.Merge(c.State)
			into[string(buf)] = st
			return nil
		}
	}
	var anyDegraded bool
	// Per-generation staging keeps the degraded-scan reset from discarding
	// other generations' contributions. The reset clears gen in place:
	// accumulate(gen) is bound to this map, so the re-scan must refill it.
	gen := make(map[string]agg.State)
	for _, rdr := range s.generations() {
		clear(gen)
		degraded, err := s.eachCell(ctx, rdr, fromPid, func() { clear(gen) }, accumulate(gen))
		anyDegraded = anyDegraded || degraded
		if err != nil {
			return nil, anyDegraded, err
		}
		mergeGroups(groups, gen)
	}
	if err := s.eachMemCell(fromPid, accumulate(groups)); err != nil {
		return nil, anyDegraded, err
	}
	return rowsFromGroups(groups), anyDegraded, nil
}

// mergeGroups folds src's aggregation states into dst.
func mergeGroups(dst, src map[string]agg.State) {
	for k, st := range src { //x3:nolint(detiter) state merging is commutative and dst is only observed after key-sorting
		d := dst[k]
		d.Merge(st)
		dst[k] = d
	}
}

// answerFromBase recomputes the target cuboid from the base facts — the
// oracle-style enumeration of each fact's group memberships at the
// target's ladder states, restricted by the query's constraints.
func (s *Store) answerFromBase(ctx context.Context, q Query, live []int) ([]Row, error) {
	groups := make(map[string]agg.State)
	key := make([]match.ValueID, 0, len(live))
	var buf []byte
	var facts int64
	err := s.base.Each(func(f *match.Fact) error {
		if facts%ctxCheckEvery == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("%w: %w", ErrCancelled, cerr)
			}
		}
		facts++
		var rec func(i int)
		rec = func(i int) {
			if i == len(live) {
				buf = packKey(buf[:0], key)
				st := groups[string(buf)]
				st.Add(f.Measure)
				groups[string(buf)] = st
				return
			}
			a := live[i]
			want, constrained := q.Where[a]
			for _, v := range f.Values(a, int(q.Point[a])) {
				if constrained && v != want {
					continue
				}
				key = append(key, v)
				rec(i + 1)
				key = key[:len(key)-1]
			}
		}
		rec(0)
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.reg.Counter("serve.base.facts").Add(facts)
	return rowsFromGroups(groups), nil
}

// rowsFromGroups converts an aggregation map into key-sorted rows.
func rowsFromGroups(groups map[string]agg.State) []Row {
	rows := make([]Row, 0, len(groups))
	for k, st := range groups { //x3:nolint(detiter) rows are key-sorted below before anything observes the order
		rows = append(rows, Row{Key: unpackKey([]byte(k)), State: st})
	}
	sortRows(rows)
	return rows
}

// sortedWhereAxes returns a Where clause's axes in ascending order, so
// validation decisions never depend on map iteration order.
func sortedWhereAxes(where map[int]match.ValueID) []int {
	axes := make([]int, 0, len(where))
	for a := range where { //x3:nolint(detiter) axes are sorted below before anything observes the order
		axes = append(axes, a)
	}
	sort.Ints(axes)
	return axes
}
