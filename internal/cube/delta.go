package cube

import (
	"fmt"
	"slices"
	"sort"

	"x3/internal/agg"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/obs"
)

// Delta is the in-memory delta cell table of the incremental-maintenance
// path: appended facts are folded into per-cuboid arena cell tables (the
// PR 2 accumulation kernel) until the serving layer flushes them as a
// sorted delta cell file. Unlike Maintain — which mutates a full
// map-backed Result in place — a Delta accumulates only the materialized
// cuboids of its keep set, holds keys in flat arenas, and can be
// streamed out and reset without touching the base generation.
//
// A Delta is not safe for concurrent use; the serving layer guards it
// with the store mutex.
type Delta struct {
	lat    *lattice.Lattice
	keep   map[uint32]bool // nil: every cuboid of the lattice
	tables map[uint32]*cellTable
	pids   []uint32 // keys of tables, maintained sorted
	facts  int64
}

// NewDelta returns an empty delta accumulating the cuboids in keep (the
// base generation's materialized point set); nil keep accumulates every
// cuboid of the lattice.
func NewDelta(lat *lattice.Lattice, keep []uint32) *Delta {
	return &Delta{lat: lat, keep: keepSet(keep), tables: make(map[uint32]*cellTable)}
}

// keepSet is a keep list's set form; nil stays nil (every cuboid).
func keepSet(keep []uint32) map[uint32]bool {
	if keep == nil {
		return nil
	}
	set := make(map[uint32]bool, len(keep))
	for _, p := range keep {
		set[p] = true
	}
	return set
}

// keeps reports whether the delta accumulates cuboid pid.
func (d *Delta) keeps(pid uint32) bool { return d.keep == nil || d.keep[pid] }

// Restrict narrows the keep set to keep and drops the cells of every
// cuboid outside it. When the serving layer's budgeted compaction drops
// a cuboid from the store, it drops it from the memtable too: no later
// flush writes it, and the memtable holds what a recovery that replays
// the log under the new keep set would rebuild.
func (d *Delta) Restrict(keep []uint32) {
	d.keep = keepSet(keep)
	pids := d.pids[:0]
	for _, pid := range d.pids {
		if d.keeps(pid) {
			pids = append(pids, pid)
		} else {
			delete(d.tables, pid)
		}
	}
	d.pids = pids
}

// Facts returns the number of facts absorbed since the last Reset.
func (d *Delta) Facts() int64 { return d.facts }

// Cells returns the number of distinct (cuboid, group) cells held.
func (d *Delta) Cells() int64 {
	var n int64
	for _, pid := range d.pids {
		n += int64(d.tables[pid].len())
	}
	return n
}

// Points returns the cuboids that currently hold cells, sorted.
func (d *Delta) Points() []uint32 {
	return append([]uint32(nil), d.pids...)
}

// Absorb folds src's facts into the delta: every (cuboid, group)
// membership of each fact is enumerated — the same combinatorial walk
// COUNTER performs — restricted to the keep set. The facts must have been
// evaluated with the same dictionaries as every earlier absorb
// (match.EvaluateWith), so ValueIDs agree. Iceberg lattices are refused:
// discarded below-threshold cells make increments unsound.
func (d *Delta) Absorb(src Source) (added int64, err error) {
	lat := d.lat
	if lat.Query.MinSupport > 1 {
		return 0, fmt.Errorf("cube: cannot maintain an iceberg cube (HAVING >= %d): below-threshold cells were discarded", lat.Query.MinSupport)
	}
	dim := lat.NumAxes()
	point := make([]uint8, dim)
	key := make([]match.ValueID, 0, dim)

	err = src.Each(func(f *match.Fact) error {
		added++
		var rec func(a int)
		rec = func(a int) {
			if a == dim {
				pid := lat.ID(point)
				if !d.keeps(pid) {
					return
				}
				t := d.tables[pid]
				if t == nil {
					t = newCellTable(len(key), 0, pid)
					d.tables[pid] = t
					i := sort.Search(len(d.pids), func(i int) bool { return d.pids[i] >= pid })
					d.pids = append(d.pids, 0)
					copy(d.pids[i+1:], d.pids[i:])
					d.pids[i] = pid
				}
				t.add(key, f.Measure)
				return
			}
			lad := lat.Ladders[a]
			if lad.HasDeleted() {
				point[a] = uint8(lad.Len() - 1)
				rec(a + 1)
			}
			live := lad.Len()
			if lad.HasDeleted() {
				live--
			}
			for s := 0; s < live; s++ {
				vs := f.Values(a, s)
				if len(vs) == 0 {
					continue
				}
				point[a] = uint8(s)
				for _, v := range vs {
					key = append(key, v)
					rec(a + 1)
					key = key[:len(key)-1]
				}
			}
		}
		rec(0)
		return nil
	})
	d.facts += added
	return added, err
}

// DeltaCuboid is one cuboid of a Delta in key order: an index sorted over
// the cuboid's cell table, valid until the Delta next changes.
type DeltaCuboid struct {
	t     *cellTable
	order []int
}

// Cuboid returns cuboid pid's cells in key order. It sorts an index of
// the cuboid's cells, not the cells, and is the one sort of a Delta:
// EachCuboid, Each and the serving layer's merged reads all walk it.
func (d *Delta) Cuboid(pid uint32) DeltaCuboid {
	t := d.tables[pid]
	if t == nil {
		return DeltaCuboid{}
	}
	order := make([]int, t.len())
	for e := range order {
		order[e] = e
	}
	slices.SortFunc(order, func(a, b int) int { return slices.Compare(t.keyAt(a), t.keyAt(b)) })
	return DeltaCuboid{t: t, order: order}
}

// Len returns the number of cells.
func (c DeltaCuboid) Len() int { return len(c.order) }

// At returns the i-th cell in key order. The key slice is an arena view,
// valid until the Delta next changes.
func (c DeltaCuboid) At(i int) ([]match.ValueID, agg.State) {
	e := c.order[i]
	return c.t.keyAt(e), c.t.states[e]
}

// EachCuboid streams cuboid pid's cells in key order. The key slice is an
// arena view — valid only during the call.
func (d *Delta) EachCuboid(pid uint32, fn func(key []match.ValueID, s agg.State) error) error {
	c := d.Cuboid(pid)
	for i := range c.Len() {
		if err := fn(c.At(i)); err != nil {
			return err
		}
	}
	return nil
}

// CuboidCells returns the number of cells held for cuboid pid.
func (d *Delta) CuboidCells(pid uint32) int64 {
	t := d.tables[pid]
	if t == nil {
		return 0
	}
	return int64(t.len())
}

// Each streams every cell in file order — cuboids by ascending pid, each
// cuboid's cells by key — so a flush streams it straight into a cell-file
// writer. The key slice is an arena view, valid only during the call.
func (d *Delta) Each(fn func(point uint32, key []match.ValueID, s agg.State) error) error {
	for _, pid := range d.pids {
		if err := d.EachCuboid(pid, func(key []match.ValueID, s agg.State) error { return fn(pid, key, s) }); err != nil {
			return err
		}
	}
	return nil
}

// Reset empties the delta after a flush. Tables are dropped rather than
// recycled: Absorb keys table existence off the map, so a kept-but-empty
// table would desynchronize the pid index.
func (d *Delta) Reset() {
	clear(d.tables)
	d.pids = d.pids[:0]
	d.facts = 0
}

// FlushObs folds the underlying cell tables' probe/resize counts into
// reg's celltable.* keys. Nil-registry safe.
func (d *Delta) FlushObs(reg *obs.Registry) {
	for _, pid := range d.pids {
		d.tables[pid].flushObs(reg)
	}
}
