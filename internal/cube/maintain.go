package cube

import (
	"x3/internal/agg"
	"x3/internal/match"
)

// Maintain folds newly arrived facts into an already-computed Result
// without recomputing the cube: the facts are absorbed into a Delta over
// every cuboid of the lattice — the one (cuboid, group) membership walk of
// the maintenance path — and the delta's cells are merged into the
// existing ones. This is sound because all supported aggregates are
// distributive or algebraic under insertion; deletions are not supported.
// The new facts must have been evaluated with the Result's own
// dictionaries (match.EvaluateWith), so their ValueIDs agree. If src
// fails part-way the Result is left untouched.
//
// Iceberg results cannot be maintained: cells below the old threshold were
// discarded, so their true counts are unknown. Maintain refuses them.
func Maintain(res *Result, src Source) (added int64, err error) {
	d := NewDelta(res.Lattice, nil)
	if added, err = d.Absorb(src); err != nil {
		return added, err
	}
	err = d.Each(func(pid uint32, key []match.ValueID, s agg.State) error {
		cells, ok := res.Cuboids[pid]
		if !ok {
			cells = make(map[string]agg.State)
			res.Cuboids[pid] = cells
		}
		k := string(packKey(nil, key))
		cur, exists := cells[k]
		cur.Merge(s)
		cells[k] = cur
		if !exists {
			res.Cells++
		}
		return nil
	})
	return added, err
}
