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
	d := &Delta{lat: lat, tables: make(map[uint32]*cellTable)}
	if keep != nil {
		d.keep = make(map[uint32]bool, len(keep))
		for _, p := range keep {
			d.keep[p] = true
		}
	}
	return d
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
				if d.keep != nil && !d.keep[pid] {
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

// EachCuboid streams cuboid pid's cells in insertion order (deterministic
// for a deterministic absorb sequence). The key slice is an arena view —
// valid only during the call.
func (d *Delta) EachCuboid(pid uint32, fn func(key []match.ValueID, s agg.State) error) error {
	t := d.tables[pid]
	if t == nil {
		return nil
	}
	return t.each(func(key []match.ValueID, s *agg.State) error {
		return fn(key, *s)
	})
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
	var order []int
	for _, pid := range d.pids {
		t := d.tables[pid]
		order = order[:0]
		for e := range t.states {
			order = append(order, e)
		}
		slices.SortFunc(order, func(a, b int) int { return slices.Compare(t.keyAt(a), t.keyAt(b)) })
		for _, e := range order {
			if err := fn(pid, t.keyAt(e), t.states[e]); err != nil {
				return err
			}
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
