package cube

import (
	"fmt"
	"sort"

	"x3/internal/agg"
	"x3/internal/lattice"
)

// runRollup implements TDOPTALL and TDCUST: cuboids are processed from the
// lattice top (rigid) downward, and each is derived from an already
// computed one-step-finer cuboid whenever the step permits —
// unconditionally for TDOPTALL (it assumes summarizability globally), and
// only across schema-certified edges for TDCUST.
//
// A roll-up across an LND step merges the finer cuboid's cells after
// dropping the deleted axis's key column; it is correct exactly when the
// dropped axis is covered (no fact hides in a missing value) and disjoint
// (no fact is double-counted across groups) at the finer state. A roll-up
// across a ladder state step is a verbatim copy: when the stepped axis is
// covered below and disjoint above, every fact's value set is identical at
// the two states, so the cuboids coincide.
func (t TD) runRollup(in *Input, sink Sink, st *Stats) error {
	lat := in.Lattice
	cust := t.Mode == TDModeCust
	if cust && in.Props == nil {
		return fmt.Errorf("cube: TDCUST requires Input.Props")
	}

	pts := lat.Points()
	// Coarsening order: total relaxation weight ascending, top first.
	weight := func(p lattice.Point) int {
		w := 0
		for _, s := range p {
			w += int(s)
		}
		return w
	}
	sort.SliceStable(pts, func(i, j int) bool {
		wi, wj := weight(pts[i]), weight(pts[j])
		if wi != wj {
			return wi < wj
		}
		return lat.ID(pts[i]) < lat.ID(pts[j])
	})

	store := newCellStore(in)
	defer store.releaseAll()

	// TDOPTALL releases a cuboid once all children that chose it as
	// parent have consumed it.
	refcnt := make(map[uint32]int)
	if !cust {
		for _, p := range pts {
			if e := chooseParent(lat, p); e != nil {
				refcnt[lat.ID(e.parent)]++
			}
		}
	}

	for _, p := range pts {
		if err := in.ctxErr(); err != nil {
			return err
		}
		pid := lat.ID(p)
		k := len(lat.LiveAxes(p))

		var edge *parentEdge
		if cust {
			edge = t.chooseSafeParent(in, store, p)
		} else {
			edge = chooseParent(lat, p)
		}

		var cells []byte
		var err error
		switch {
		case edge == nil:
			// Lattice top (TDOPTALL) or no safe computed parent (TDCUST):
			// compute from base data.
			cells, err = t.cellsFromBase(in, sink, st, p)
		case !edge.drop:
			// Ladder state step: identical cells, new cuboid id.
			cells, err = store.copyCells(lat.ID(edge.parent))
			if err == nil {
				st.Copies++
				err = emitCells(sink, st, pid, k, cells, in.minSupport())
			}
		default:
			// LND step: regroup the parent's cells without the dropped
			// axis's key column.
			cells, err = t.rollup(in, sink, st, store, p, edge)
		}
		if err != nil {
			return err
		}
		store.put(pid, cells)

		if !cust && edge != nil {
			qid := lat.ID(edge.parent)
			refcnt[qid]--
			if refcnt[qid] == 0 {
				store.release(qid)
			}
		}
		if refcnt[pid] == 0 && !cust {
			store.release(pid)
		}
	}
	return nil
}

// chooseSafeParent returns a computed parent reachable over a
// schema-certified edge, or nil when p must be computed from base.
func (t TD) chooseSafeParent(in *Input, store *cellStore, p lattice.Point) *parentEdge {
	lat := in.Lattice
	// Prefer relaxing the last axis: that drops the parent's last key
	// column, which rolls up without a sort.
	for a := len(p) - 1; a >= 0; a-- {
		if p[a] == 0 {
			continue
		}
		q := p.Clone()
		q[a]--
		if !store.has(lat.ID(q)) {
			continue
		}
		if EdgeSafe(lat, in.Props, p, a) {
			return &parentEdge{parent: q, axis: a, drop: lat.Deleted(p, a)}
		}
	}
	return nil
}

// cellsFromBase computes cuboid p directly from the fact source, emits its
// cells, and returns them packed for later roll-ups.
func (t TD) cellsFromBase(in *Input, sink Sink, st *Stats, p lattice.Point) ([]byte, error) {
	lat := in.Lattice
	cols := colsOf(lat, p)
	withID := false
	opts := expandOpts{firstOnly: true}
	if t.Mode == TDModeCust {
		// Stay correct: expand full value sets, and retain identities
		// when any column may be non-disjoint.
		opts.firstOnly = false
		for _, c := range cols {
			if !in.Props.Disjoint(c.axis, c.state) {
				withID = true
			}
		}
		opts.withID = withID
	}
	sorter := newSorter(in, rowWidth(len(cols), withID))
	err := expandInto(in, cols, opts, sorter)
	st.Passes++
	if err != nil {
		return nil, err
	}
	it, es, err := sorter.Finish(in.Ctx)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	accumulateSortStats(st, es)
	pid := lat.ID(p)
	minSup := in.minSupport()
	var cells []byte
	err = scanGroups(it, len(cols), withID, func(key []byte, s agg.State) error {
		// Below-threshold cells are retained for roll-up but not emitted.
		if s.N >= minSup {
			st.Cells++
			if err := sink.Cell(pid, unpackKey(key), s); err != nil {
				return err
			}
		}
		cells = appendCell(cells, key, s)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// rollup derives cuboid p from its parent's cells by deleting the key
// column of edge.axis and merging groups that collide.
func (t TD) rollup(in *Input, sink Sink, st *Stats, store *cellStore, p lattice.Point, edge *parentEdge) ([]byte, error) {
	lat := in.Lattice
	parentCells, ok := store.cells[lat.ID(edge.parent)]
	if !ok {
		return nil, fmt.Errorf("cube: %s: roll-up parent %s not retained (budget too small)",
			t.Name(), lat.Label(edge.parent))
	}
	return rollupCells(in, sink, st, parentCells, p, edge)
}

// rollupCells is the roll-up core shared by the serial and parallel
// top-down algorithms: it derives cuboid p's packed cells from its
// parent's, emitting at-threshold cells along the way. parentCells is
// read-only; callers that fetch it from a shared store may do so under a
// lock and pass the (immutable) byte slice in.
func rollupCells(in *Input, sink Sink, st *Stats, parentCells []byte, p lattice.Point, edge *parentEdge) ([]byte, error) {
	lat := in.Lattice
	parentLive := lat.LiveAxes(edge.parent)
	dropPos := -1
	for i, a := range parentLive {
		if a == edge.axis {
			dropPos = i
		}
	}
	if dropPos < 0 {
		return nil, fmt.Errorf("cube: internal: dropped axis %d not live in parent", edge.axis)
	}
	kq := len(parentLive)
	kp := kq - 1
	wq := 4*kq + agg.EncodedSize
	wp := 4*kp + agg.EncodedSize
	st.Rollups++

	pid := lat.ID(p)
	minSup := in.minSupport()
	var cells []byte
	var prevKey []byte
	var acc agg.State
	started := false
	emit := func() error {
		if acc.N >= minSup {
			st.Cells++
			if err := sink.Cell(pid, unpackKey(prevKey), acc); err != nil {
				return err
			}
		}
		cells = appendCell(cells, prevKey, acc)
		return nil
	}
	consume := func(key []byte, s agg.State) error {
		if started && string(key) == string(prevKey) {
			acc.Merge(s)
			return nil
		}
		if started {
			if err := emit(); err != nil {
				return err
			}
		}
		prevKey = append(prevKey[:0], key...)
		acc = s
		started = true
		return nil
	}

	if dropPos == kq-1 {
		// Dropping the last key column: parent cells are already grouped
		// by the remaining prefix — merge in one pass, no sort.
		for off := 0; off+wq <= len(parentCells); off += wq {
			key := parentCells[off : off+4*kp]
			if err := consume(key, agg.Decode(parentCells[off+4*kq:off+wq])); err != nil {
				return nil, err
			}
		}
	} else {
		// An interior column drop (TDCUST when only that edge is safe):
		// regroup with a sort.
		sorter := newSorter(in, wp)
		row := make([]byte, wp)
		for off := 0; off+wq <= len(parentCells); off += wq {
			key := parentCells[off : off+4*kq]
			copy(row, key[:4*dropPos])
			copy(row[4*dropPos:], key[4*dropPos+4:4*kq])
			copy(row[4*kp:], parentCells[off+4*kq:off+wq])
			if err := sorter.Add(in.Ctx, row); err != nil {
				return nil, err
			}
		}
		it, es, err := sorter.Finish(in.Ctx)
		if err != nil {
			return nil, err
		}
		defer it.Close()
		accumulateSortStats(st, es)
		for {
			r, err := it.Next()
			if err != nil {
				return nil, err
			}
			if r == nil {
				break
			}
			if err := consume(r[:4*kp], agg.Decode(r[4*kp:])); err != nil {
				return nil, err
			}
		}
	}
	if started {
		if err := emit(); err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// appendCell packs one cell (key + encoded aggregate) onto buf.
func appendCell(buf, key []byte, s agg.State) []byte {
	buf = append(buf, key...)
	var enc [agg.EncodedSize]byte
	s.Encode(enc[:])
	return append(buf, enc[:]...)
}

// emitCells sinks every at-threshold cell in a packed buffer for cuboid
// pid (k key columns per cell).
func emitCells(sink Sink, st *Stats, pid uint32, k int, cells []byte, minSup int64) error {
	w := 4*k + agg.EncodedSize
	for off := 0; off+w <= len(cells); off += w {
		key := cells[off : off+4*k]
		s := agg.Decode(cells[off+4*k : off+w])
		if s.N < minSup {
			continue
		}
		st.Cells++
		if err := sink.Cell(pid, unpackKey(key), s); err != nil {
			return err
		}
	}
	return nil
}

// cellStore retains computed cuboids' packed cells for roll-up, accounting
// the bytes against the budget. When the budget refuses a cuboid it simply
// is not stored (TDCUST then recomputes children from base; TDOPTALL
// treats it as a hard error since it has no fallback).
type cellStore struct {
	in       *Input
	cells    map[uint32][]byte
	reserved map[uint32]int64
}

func newCellStore(in *Input) *cellStore {
	return &cellStore{in: in, cells: map[uint32][]byte{}, reserved: map[uint32]int64{}}
}

func (cs *cellStore) has(id uint32) bool {
	_, ok := cs.cells[id]
	return ok
}

func (cs *cellStore) get(id uint32) []byte { return cs.cells[id] }

func (cs *cellStore) put(id uint32, cells []byte) {
	n := int64(len(cells))
	if !cs.in.budget().TryReserve(n) {
		return // not retained; callers fall back or fail later
	}
	cs.cells[id] = cells
	cs.reserved[id] = n
}

func (cs *cellStore) copyCells(id uint32) ([]byte, error) {
	src, ok := cs.cells[id]
	if !ok {
		return nil, fmt.Errorf("cube: roll-up parent %d not retained (budget too small)", id)
	}
	out := make([]byte, len(src))
	copy(out, src)
	return out, nil
}

func (cs *cellStore) release(id uint32) {
	if n, ok := cs.reserved[id]; ok {
		cs.in.budget().Release(n)
		delete(cs.reserved, id)
	}
	delete(cs.cells, id)
}

func (cs *cellStore) releaseAll() {
	for id := range cs.cells {
		cs.release(id)
	}
}
