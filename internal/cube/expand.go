package cube

import (
	"encoding/binary"
	"math"

	"x3/internal/agg"
	"x3/internal/extsort"
	"x3/internal/lattice"
	"x3/internal/match"
)

// col is one sort column: a live axis at a specific ladder state.
type col struct {
	axis  int
	state int
}

// colsOf returns the sort columns of cuboid p in axis order.
func colsOf(lat *lattice.Lattice, p lattice.Point) []col {
	var out []col
	for _, a := range lat.LiveAxes(p) {
		out = append(out, col{axis: a, state: int(p[a])})
	}
	return out
}

// expandOpts controls how facts expand into sort rows.
type expandOpts struct {
	// withID appends the 8-byte fact ID to each row (identity retention,
	// needed when disjointness may fail and results are rolled together).
	withID bool
	// firstOnly takes only the first value of each column's set — the
	// behaviour of algorithms that assume disjointness.
	firstOnly bool
	// nullMissing emits the Null sentinel when a column's value set is
	// empty instead of dropping the fact; prefix-shared sorts need it so
	// the fact survives into coarser prefixes.
	nullMissing bool
}

// rowWidth returns the byte width of a row with k columns.
func rowWidth(k int, withID bool) int {
	w := 4*k + 8 // values + measure
	if withID {
		w += 8
	}
	return w
}

// expandInto streams the source and adds one row per fact (or per value
// combination, when sets are multi-valued and firstOnly is off) to the
// sorter. Row layout: k big-endian uint32 values, optional 8-byte fact ID,
// 8-byte measure bits.
func expandInto(in *Input, cols []col, opts expandOpts, s *extsort.Sorter) error {
	k := len(cols)
	row := make([]byte, rowWidth(k, opts.withID))
	vals := make([][]match.ValueID, k)
	return in.Source.Each(func(f *match.Fact) error {
		for i, c := range cols {
			vs := f.Values(c.axis, c.state)
			if len(vs) == 0 {
				if !opts.nullMissing {
					return nil // fact absent from this cuboid
				}
				vals[i] = nullSet
				continue
			}
			if opts.firstOnly {
				vals[i] = vs[:1]
			} else {
				vals[i] = vs
			}
		}
		tail := 4 * k
		if opts.withID {
			binary.BigEndian.PutUint64(row[tail:], uint64(f.ID))
			tail += 8
		}
		binary.BigEndian.PutUint64(row[tail:], math.Float64bits(f.Measure))
		var emit func(i int) error
		emit = func(i int) error {
			if i == k {
				return s.Add(in.Ctx, row)
			}
			for _, v := range vals[i] {
				binary.BigEndian.PutUint32(row[4*i:], uint32(v))
				if err := emit(i + 1); err != nil {
					return err
				}
			}
			return nil
		}
		return emit(0)
	})
}

// nullSet is the single-element set holding the Null sentinel.
var nullSet = []match.ValueID{Null}

// scanGroups walks a sorted row iterator, aggregates rows sharing the same
// 4*k-byte key prefix, and calls emit once per group. When withID is set,
// consecutive rows with identical (key, id) are collapsed so a fact never
// contributes twice to one group.
func scanGroups(it *extsort.Iterator, k int, withID bool, emit func(key []byte, s agg.State) error) error {
	keyLen := 4 * k
	idLen := 0
	if withID {
		idLen = 8
	}
	var prev []byte
	var state agg.State
	for {
		row, err := it.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		if prev != nil {
			if string(row[:keyLen]) != string(prev[:keyLen]) {
				if err := emit(prev[:keyLen], state); err != nil {
					return err
				}
				state = agg.State{}
			} else if withID && string(row[:keyLen+idLen]) == string(prev[:keyLen+idLen]) {
				// Same fact, same group: skip the duplicate.
				prev = append(prev[:0], row...)
				continue
			}
		}
		m := math.Float64frombits(binary.BigEndian.Uint64(row[keyLen+idLen:]))
		state.Add(m)
		prev = append(prev[:0], row...)
	}
	if prev != nil {
		return emit(prev[:keyLen], state)
	}
	return nil
}

// sortLimit picks the sort buffer cap from the budget: unlimited budgets
// never spill (one in-memory sort). Bounded budgets divide memory
// among the cuboids, the way PartitionCube keeps partition runs for every
// group-by in flight at once — so sorts turn external exactly when the
// cuboid count grows, reproducing the paper's "exponential number of
// (external) sorts" for the top-down family at high axis counts.
func sortLimit(in *Input) int64 {
	b := in.budget()
	if b.IsUnlimited() {
		return 0
	}
	share := int64(in.Lattice.Size())
	if share < 4 {
		share = 4
	}
	limit := b.Total() / share
	if limit < 4096 {
		limit = 4096
	}
	return limit
}

// newSorter builds a sorter for rows of the given width under the input's
// budget share, wired to the input's registry (extsort.* keys) and to the
// input's worker knob (background run formation, chunked in-memory sorts).
func newSorter(in *Input, width int) *extsort.Sorter {
	s := extsort.New(width, sortLimit(in), in.TmpDir)
	s.Observe(in.Reg)
	if in.Workers != 1 {
		s.Parallel(resolveWorkers(0, in.Workers))
	}
	return s
}

// accumulateSortStats folds one extsort run into the algorithm stats.
func accumulateSortStats(st *Stats, es extsort.Stats) {
	st.Sorts++
	if es.External {
		st.ExternalSorts++
	}
	st.SpillBytes += es.SpillBytes
	st.RowsSorted += es.Rows
}

// decodeFloat reads the 8-byte big-endian float bits at the start of b.
func decodeFloat(b []byte) float64 {
	return math.Float64frombits(binary.BigEndian.Uint64(b))
}

// keyHasNull reports whether any value in the packed key equals Null.
func keyHasNull(key []byte) bool {
	for i := 0; i+4 <= len(key); i += 4 {
		if binary.BigEndian.Uint32(key[i:]) == uint32(Null) {
			return true
		}
	}
	return false
}
