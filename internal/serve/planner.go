package serve

import (
	"context"
	"fmt"
	"maps"
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
// It holds the store's read lock once, for the whole request —
// validation, planning, the scan and the fold — so a concurrent
// maintenance swap never changes state under a half-answered query.
// Cancellation surfaces as an error wrapping ctx.Err(); malformed
// queries wrap ErrBadRequest.
func (s *Store) Answer(ctx context.Context, q Query) (*Answer, error) {
	start := time.Now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.answer(ctx, q, false, start)
}

// answer is the request core Answer and AnswerCells share, under a held
// read lock: validate q, count it, plan and execute it. none marks a
// query pinned to a value no dictionary holds: it is planned and counted
// like any other, but reads nothing and answers no rows. start is when
// the caller began waiting for the lock, so serve.answer.latency
// includes that wait.
func (s *Store) answer(ctx context.Context, q Query, none bool, start time.Time) (*Answer, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.lat.Validate(q.Point); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	live := s.lat.LiveAxes(q.Point)
	// Ascending axis order, not map order: when several constrained axes
	// are dead at this point, every run must reject the same one.
	for _, a := range slices.Sorted(maps.Keys(q.Where)) {
		if !slices.Contains(live, a) {
			return nil, fmt.Errorf("%w: axis %d is not live at %s", ErrBadRequest, a, s.lat.Label(q.Point))
		}
	}

	s.recordQuery(s.lat.ID(q.Point))
	ans, err := s.execute(ctx, q, live, none)
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
	for _, pid := range s.keepSorted {
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

// execute is the one path from plan to rows. It reads one source — the
// merged generations of the cuboid plan picks (scanCuboid), or the base
// facts when no materialized cuboid answers safely (scanBase) — projects
// each arrival onto the target's live axes and folds equal keys only
// where the arrivals are not already in key order (rowSink). none skips
// the read: a pin no dictionary holds matches no cell. A cuboid that even
// the degraded merge cannot read falls back to the base facts, which
// never touch the files, so a corrupt store degrades to slow-but-correct
// answers instead of serving garbage or going dark.
func (s *Store) execute(ctx context.Context, q Query, live []int, none bool) (*Answer, error) {
	ans := &Answer{Plan: PlanBase}
	if ans.From, _ = s.plan(q.Point); ans.From != nil {
		ans.Plan = PlanRollup
		if s.lat.ID(ans.From) == s.lat.ID(q.Point) {
			ans.Plan = PlanDirect
		}
	}
	if none {
		return ans, nil
	}
	var err error
	if ans.From != nil {
		ans.Rows, ans.Degraded, err = s.scanCuboid(ctx, q, live, ans.From)
		if err == nil {
			return ans, nil
		}
		if isCancellation(err) {
			return nil, err
		}
		s.reg.Counter("serve.degraded.base").Inc()
		ans = &Answer{Plan: PlanBase, Degraded: true}
	}
	if ans.Rows, err = s.scanBase(ctx, q, live); err != nil {
		return nil, err
	}
	return ans, nil
}

// rowSink collects a scan's projected arrivals. A direct read arrives
// sorted and distinct (sorted) and is returned as it came; any other
// source folds its arrivals with Fold.
type rowSink struct {
	rows   []Row
	sorted bool
}

// add takes one arrival; the row owns key.
func (r *rowSink) add(key []match.ValueID, st agg.State) {
	r.rows = append(r.rows, Row{Key: key, State: st})
}

// result returns the rows sorted by key, one per key.
func (r *rowSink) result() []Row {
	if r.sorted {
		return r.rows
	}
	return Fold(r.rows, func(a, b Row) int { return slices.Compare(a.Key, b.Key) },
		func(r *Row) *agg.State { return &r.State })
}

// scanCuboid reads the materialized cuboid from, merged across the
// generations (mergeCuboid), and projects each cell onto the target's
// live axes: the target's i-th live axis sits at position proj[i] of
// from's key (plan only picks a from at least as fine on every axis). A
// direct read projects by the identity and never folds; a roll-up folds.
// Safe relaxation steps make a roll-up exact: across a ladder state step
// the cells coincide, and across an LND step the dropped axis's groups
// partition the facts, so aggregate-state merging (internal/agg)
// reproduces the target cuboid.
func (s *Store) scanCuboid(ctx context.Context, q Query, live []int, from lattice.Point) ([]Row, bool, error) {
	out := rowSink{sorted: s.lat.ID(from) == s.lat.ID(q.Point)}
	fromLive := live // a direct read's source is the target
	if !out.sorted {
		fromLive = s.lat.LiveAxes(from)
	}
	proj := make([]int, len(live))
	for i, a := range live {
		proj[i] = slices.Index(fromLive, a)
	}
	degraded, err := s.mergeCuboid(ctx, s.lat.ID(from), pinsAt(q.Where, live, proj), func() { out.rows = out.rows[:0] }, func(c *cellfile.Cell) error {
		key := make([]match.ValueID, len(proj))
		for i, pos := range proj {
			key[i] = c.Key[pos]
		}
		out.add(key, c.State)
		return nil
	})
	if err != nil {
		return nil, degraded, err
	}
	return out.result(), degraded, nil
}

// scanBase recomputes the target cuboid from the base facts — the
// oracle-style enumeration of each fact's group memberships at the
// target's ladder states, restricted by the query's pins — and folds the
// memberships, which arrive in fact order, into groups.
func (s *Store) scanBase(ctx context.Context, q Query, live []int) ([]Row, error) {
	var out rowSink
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
				out.add(slices.Clone(key), one)
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
	return out.result(), nil
}

// pin is one of a query's equality constraints placed in the key of the
// cuboid a plan reads: a cell survives when Key[pos] == val.
type pin struct {
	pos int
	val match.ValueID
}

// pinsAt places the query's constraints in the key of the cuboid a plan
// reads: the target's i-th live axis sits at position proj[i] of that
// key. Live axes ascend and so does proj, so the pins come out in
// ascending position order.
func pinsAt(where map[int]match.ValueID, live, proj []int) []pin {
	pins := make([]pin, 0, len(where))
	for i, a := range live {
		if v, ok := where[a]; ok {
			pins = append(pins, pin{pos: proj[i], val: v})
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
// across the sources in that order. A Build store has no deltas and an
// empty memtable, so its merge reads one file. Every source seeks to the
// prefix the leading pins fix (see leadingPins), so a pin on position 0
// reads about one block per generation instead of the whole cuboid.
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
		if s.mem.CuboidCells(pid) > 0 {
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
