package serve

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"x3/internal/agg"
	"x3/internal/cellfile"
	"x3/internal/cube"
	"x3/internal/lattice"
	"x3/internal/match"
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
		if pid != targetID && !cube.PathSafe(s.lat, s.props, p, target) {
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

// pin is one of a query's equality constraints placed in the key of the
// cuboid a plan reads: a cell survives when Key[pos] == val.
type pin struct {
	pos int
	val match.ValueID
}

// pinsAt places the query's constraints in the key of the cuboid a plan
// reads: the target's i-th live axis sits at position proj[i] of that
// key, or at i when proj is nil (a direct read). Live axes ascend and so
// does proj, so the pins come out in ascending position order.
func pinsAt(where map[int]match.ValueID, live, proj []int) []pin {
	pins := make([]pin, 0, len(where))
	for i, a := range live {
		if v, ok := where[a]; ok {
			pos := i
			if proj != nil {
				pos = proj[i]
			}
			pins = append(pins, pin{pos: pos, val: v})
		}
	}
	return pins
}

// leadingPins splits pins, in ascending position order, into the key
// prefix they fix — the values of the longest run of pins at positions
// 0..k-1 — and the pins after it, which a read filters cell by cell.
func leadingPins(pins []pin) (prefix []match.ValueID, rest []pin) {
	k := 0
	for k < len(pins) && pins[k].pos == k {
		k++
	}
	prefix = make([]match.ValueID, k)
	for i := range prefix {
		prefix[i] = pins[i].val
	}
	return prefix, pins[k:]
}

// source is one input of a merged cuboid read — a generation's cursor or
// the memtable, each already seeking to the query's leading pins — with
// the remaining pins applied before the merge. err keeps the input's own
// failure: the generation the ladder re-reads.
type source struct {
	in   cellfile.Stream
	pins []pin
	err  error
}

// Next implements cellfile.Stream.
func (src *source) Next(ctx context.Context) (*cellfile.Cell, error) {
next:
	for {
		c, err := src.in.Next(ctx)
		if c == nil || err != nil {
			src.err = err
			return nil, err
		}
		for _, p := range src.pins {
			if c.Key[p.pos] != p.val {
				continue next
			}
		}
		return c, nil
	}
}

// memCuboid streams the cells of one memtable cuboid whose keys start
// with prefix, in key order: it starts at a binary search for the prefix
// and stops at the first cell past it.
type memCuboid struct {
	c      cube.DeltaCuboid
	prefix []match.ValueID
	i      int
	cell   cellfile.Cell
}

// newMemCuboid returns the memtable stream of cuboid pid's cells with
// prefix.
func newMemCuboid(c cube.DeltaCuboid, pid uint32, prefix []match.ValueID) *memCuboid {
	m := &memCuboid{c: c, prefix: prefix, cell: cellfile.Cell{Point: pid}}
	m.i = sort.Search(c.Len(), func(i int) bool { return m.cmp(i) >= 0 })
	return m
}

// cmp compares the i-th cell's key with the prefix (cellfile.ComparePrefix).
func (m *memCuboid) cmp(i int) int {
	key, _ := m.c.At(i)
	return cellfile.ComparePrefix(key, m.prefix)
}

// Next implements cellfile.Stream.
func (m *memCuboid) Next(context.Context) (*cellfile.Cell, error) {
	if m.i == m.c.Len() || (len(m.prefix) > 0 && m.cmp(m.i) > 0) {
		return nil, nil
	}
	m.cell.Key, m.cell.State = m.c.At(m.i)
	m.i++
	return &m.cell, nil
}

// mergeCuboid streams cuboid pid, under a held read lock, from the base,
// the deltas oldest first and the memtable through cellfile.MergeAgg: fn
// sees each group that passes pins once, in key order, its state merged
// across the sources in that order. A single-file store is a merge of
// one. Every source seeks to the prefix the leading pins fix (see
// leadingPins), so a pin on position 0 reads about one block per
// generation instead of the whole cuboid.
//
// The degraded ladder runs by restart: when generation i fails with a
// data fault, serve.degraded.scan counts it, reset clears what fn
// accumulated, and the merge runs again with i re-read Verified. A
// verified re-read that fails too fails the read with both causes,
// wrapping the re-read's sentinel. Cancellations pass through.
func (s *Store) mergeCuboid(ctx context.Context, pid uint32, pins []pin, reset func(), fn func(*cellfile.Cell) error) (degraded bool, err error) {
	// genRead is one generation's input and the fault, if any, that
	// switched its mode to Verified.
	type genRead struct {
		src   source
		cur   *cellfile.Cursor
		mode  cellfile.ReadMode
		fault error
	}
	prefix, rest := leadingPins(pins)
	reads := make([]genRead, 1+len(s.deltas))
	streams := make([]cellfile.Stream, 0, len(reads)+1)
	for {
		streams = streams[:0]
		for i := range reads {
			g := &reads[i]
			gen := s.rdr
			if i > 0 {
				gen = s.deltas[i-1]
			}
			g.cur = gen.Cuboid(pid, prefix, g.mode)
			g.src = source{in: g.cur, pins: rest}
			streams = append(streams, &g.src)
		}
		if s.mem != nil && s.mem.CuboidCells(pid) > 0 {
			streams = append(streams, &source{in: newMemCuboid(s.mem.Cuboid(pid), pid, prefix), pins: rest})
		}
		err := cellfile.MergeAgg(ctx, streams, fn)
		for i := range reads {
			reads[i].cur.Close()
		}
		if err == nil || isCancellation(err) {
			return degraded, err
		}
		i := slices.IndexFunc(reads, func(g genRead) bool { return g.src.err != nil })
		if i < 0 {
			return degraded, err
		}
		g := &reads[i]
		if g.mode == cellfile.Verified {
			return true, fmt.Errorf("serve: cuboid %d unreadable (%w); degraded scan: %w", pid, g.fault, g.src.err)
		}
		s.reg.Counter("serve.degraded.scan").Inc()
		g.fault, g.mode, degraded = g.src.err, cellfile.Verified, true
		reset()
	}
}

// answerDirect streams the materialized target cuboid out of the merged
// generations: the merge's key order is the answer's, so the rows need
// no map and no sort.
func (s *Store) answerDirect(ctx context.Context, q Query, live []int) ([]Row, bool, error) {
	var rows []Row
	degraded, err := s.mergeCuboid(ctx, s.lat.ID(q.Point), pinsAt(q.Where, live, nil), func() { rows = rows[:0] }, func(c *cellfile.Cell) error {
		key := make([]match.ValueID, len(c.Key))
		copy(key, c.Key)
		rows = append(rows, Row{Key: key, State: c.State})
		return nil
	})
	return rows, degraded, err
}

// answerRollup merges the finer materialized cuboid `from` across the
// generations and the memtable, projects its cells onto the target's
// live axes in stream order, and folds them into the target's coarser
// groups. Safe relaxation steps make this exact: across a ladder state
// step the cells coincide, and across an LND step the dropped axis's
// groups partition the facts, so aggregate-state merging (internal/agg)
// reproduces the target cuboid.
func (s *Store) answerRollup(ctx context.Context, q Query, live []int, from lattice.Point) ([]Row, bool, error) {
	fromLive := s.lat.LiveAxes(from)
	// proj[i] is the position within from's key of the target's i-th
	// live axis.
	proj := make([]int, len(live))
	for i, a := range live {
		pos := slices.Index(fromLive, a)
		if pos < 0 {
			return nil, false, fmt.Errorf("serve: internal: axis %d live at %s but not at finer %s",
				a, s.lat.Label(q.Point), s.lat.Label(from))
		}
		proj[i] = pos
	}
	var rows []Row
	degraded, err := s.mergeCuboid(ctx, s.lat.ID(from), pinsAt(q.Where, live, proj), func() { rows = rows[:0] }, func(c *cellfile.Cell) error {
		key := make([]match.ValueID, len(live))
		for i := range live {
			key[i] = c.Key[proj[i]]
		}
		rows = append(rows, Row{Key: key, State: c.State})
		return nil
	})
	if err != nil {
		return nil, degraded, err
	}
	return foldRows(rows), degraded, nil
}

// answerFromBase recomputes the target cuboid from the base facts — the
// oracle-style enumeration of each fact's group memberships at the
// target's ladder states, restricted by the query's constraints — and
// folds the memberships, in fact order, into groups.
func (s *Store) answerFromBase(ctx context.Context, q Query, live []int) ([]Row, error) {
	var rows []Row
	key := make([]match.ValueID, 0, len(live))
	var facts int64
	err := s.base.Each(func(f *match.Fact) error {
		if facts%ctxCheckEvery == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("%w: %w", ErrCancelled, cerr)
			}
		}
		facts++
		var one agg.State
		one.Add(f.Measure)
		var rec func(i int)
		rec = func(i int) {
			if i == len(live) {
				rows = append(rows, Row{Key: slices.Clone(key), State: one})
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
	return foldRows(rows), nil
}

// foldRows folds (key, state) pairs, in arrival order, into key-sorted
// rows, one per key (Fold).
func foldRows(rows []Row) []Row {
	return Fold(rows, func(a, b Row) int { return slices.Compare(a.Key, b.Key) },
		func(r *Row) *agg.State { return &r.State })
}

// Fold is the serving path's one way to combine equal keys. It sorts rows
// by cmp with a stable sort, so equal rows keep their arrival order, and
// merges each run of equal rows into its first, state by state in that
// order: every folded state is bit-equal to merging the run's states into
// one accumulator as they arrived, however inexact the float sums. The
// folded rows reuse rows' backing array.
func Fold[T any](rows []T, cmp func(a, b T) int, state func(*T) *agg.State) []T {
	slices.SortStableFunc(rows, cmp)
	out := rows[:0]
	for i := range rows {
		if n := len(out); n > 0 && cmp(out[n-1], rows[i]) == 0 {
			state(&out[n-1]).Merge(*state(&rows[i]))
			continue
		}
		out = append(out, rows[i])
	}
	return out
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
