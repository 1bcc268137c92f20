// Package match evaluates an X³ query's most relaxed fully instantiated
// tree pattern (paper §3.4, Fig. 2) against a document and materializes the
// result as a fact table: for every fact, for every grouping axis, the set
// of grouping values matched at every rung of the axis's relaxation ladder.
//
// Because ladder states are monotone (each state matches a superset of the
// previous), this single evaluation carries enough information to compute
// every cuboid of the lattice — which is exactly the property the paper's
// bottom-up and top-down algorithms rely on. The paper pre-evaluates the
// pattern and materializes matches to a file before timing the cube
// operator (§4); package matchfile provides that serialization.
package match

import (
	"fmt"
	"strconv"

	"x3/internal/lattice"
	"x3/internal/obs"
	"x3/internal/pattern"
	"x3/internal/xmltree"
)

// Fact is one matched fact with its grouping values at every ladder state.
type Fact struct {
	// ID is the ordinal of the fact in document order, used for duplicate
	// elimination by algorithms that must track identities.
	ID int64
	// Key is the user-visible fact identifier (the X³ clause target, e.g.
	// the @id value), or "#<node>" when the query names none.
	Key string
	// Measure is the aggregated value (1 for COUNT).
	Measure float64
	// Axes[a][s] is the sorted set of ValueIDs axis a matches at live
	// ladder state s. The deleted (LND) state, which matches everything
	// and groups nothing, has no entry: len(Axes[a]) is the number of
	// live states. An empty set means the axis is missing at that state
	// (the coverage violation).
	Axes [][][]ValueID
}

// Values returns the value set of axis a at state s; s must be live.
func (f *Fact) Values(a, s int) []ValueID { return f.Axes[a][s] }

// Set is a materialized fact table together with its dictionaries.
type Set struct {
	Lattice *lattice.Lattice
	// Dicts holds one dictionary per axis.
	Dicts []*Dict
	Facts []*Fact
}

// NumFacts returns the number of facts.
func (s *Set) NumFacts() int { return len(s.Facts) }

// Clone returns a copy of s that can grow independently of it: fresh
// dictionaries holding the same values in ID order, and a copied fact
// slice. Fact records are immutable and stay shared.
func (s *Set) Clone() *Set {
	dicts := make([]*Dict, len(s.Dicts))
	for i, d := range s.Dicts {
		dicts[i] = d.clone()
	}
	return &Set{Lattice: s.Lattice, Dicts: dicts, Facts: append([]*Fact(nil), s.Facts...)}
}

// Each calls fn for every fact in order; it implements the streaming
// source interface the cube algorithms consume, so in-memory sets and
// on-disk match files are interchangeable.
func (s *Set) Each(fn func(*Fact) error) error {
	for _, f := range s.Facts {
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// LiveStates returns the number of live (non-deleted) states of axis a.
func (s *Set) LiveStates(a int) int {
	l := s.Lattice.Ladders[a]
	if l.HasDeleted() {
		return l.Len() - 1
	}
	return l.Len()
}

// Evaluate matches the query against doc and builds the fact table with
// fresh dictionaries.
func Evaluate(doc *xmltree.Document, lat *lattice.Lattice) (*Set, error) {
	dicts := make([]*Dict, len(lat.Query.Axes))
	for i := range dicts {
		dicts[i] = NewDict()
	}
	return EvaluateWith(doc, lat, dicts)
}

// EvaluateWith is Evaluate interning grouping values into the caller's
// dictionaries — the way incremental additions to an already-computed cube
// must be evaluated, so value IDs stay consistent across batches.
func EvaluateWith(doc *xmltree.Document, lat *lattice.Lattice, dicts []*Dict) (*Set, error) {
	return EvaluateObserved(doc, lat, dicts, nil)
}

// EvaluateObserved is EvaluateWith reporting match-phase activity into the
// registry (match.facts, match.paths.evaluated); reg may be nil.
func EvaluateObserved(doc *xmltree.Document, lat *lattice.Lattice, dicts []*Dict, reg *obs.Registry) (*Set, error) {
	pathsEvaluated := reg.Counter("match.paths.evaluated")
	q := lat.Query
	if len(dicts) != len(q.Axes) {
		return nil, fmt.Errorf("match: %d dictionaries for %d axes", len(dicts), len(q.Axes))
	}
	set := &Set{Lattice: lat, Dicts: dicts}
	factNodes := EvalPathFromRoot(doc, q.FactPath)
	pathsEvaluated.Inc()
	reg.Counter("match.facts").Add(int64(len(factNodes)))
	for i, fn := range factNodes {
		f := &Fact{ID: int64(i), Measure: 1}
		// Fact key.
		f.Key = "#" + strconv.Itoa(int(fn))
		if len(q.FactIDPath) > 0 {
			if ids := EvalPath(doc, fn, q.FactIDPath); len(ids) > 0 {
				f.Key = doc.Nodes[ids[0]].Value
			}
		}
		// Measure.
		if q.Agg != pattern.Count {
			m, err := measureOf(doc, fn, q.MeasurePath)
			if err != nil {
				return nil, fmt.Errorf("match: fact %s: %w", f.Key, err)
			}
			f.Measure = m
		}
		// Axis value sets per live state.
		f.Axes = make([][][]ValueID, len(lat.Ladders))
		for a, lad := range lat.Ladders {
			live := lad.Len()
			if lad.HasDeleted() {
				live--
			}
			f.Axes[a] = make([][]ValueID, live)
			for st := 0; st < live; st++ {
				nodes := EvalPath(doc, fn, lad.States[st].Path)
				pathsEvaluated.Inc()
				f.Axes[a][st] = valueSet(doc, nodes, set.Dicts[a])
			}
		}
		set.Facts = append(set.Facts, f)
	}
	if err := set.CheckMonotone(); err != nil {
		return nil, err
	}
	return set, nil
}

// measureOf extracts the numeric measure under the fact. When the fact has
// several measure matches their values are summed; a missing measure
// contributes 0.
func measureOf(doc *xmltree.Document, fn xmltree.NodeID, p pattern.Path) (float64, error) {
	var sum float64
	for _, n := range EvalPath(doc, fn, p) {
		v := doc.Nodes[n].Value
		if v == "" {
			continue
		}
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, fmt.Errorf("measure %q is not numeric", v)
		}
		sum += x
	}
	return sum, nil
}

// valueSet interns the grouping values of the matched nodes and returns
// them as a sorted distinct set.
func valueSet(doc *xmltree.Document, nodes []xmltree.NodeID, d *Dict) []ValueID {
	if len(nodes) == 0 {
		return nil
	}
	out := make([]ValueID, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, d.ID(doc.Nodes[n].Value))
	}
	return sortedDistinct(out)
}

func sortedDistinct(ids []ValueID) []ValueID {
	if len(ids) <= 1 {
		return ids
	}
	// Insertion sort: value sets are tiny.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}

// CheckMonotone verifies the ladder-monotonicity invariant on every fact:
// each more relaxed live state matches a superset of the previous state's
// values. Evaluate establishes it by construction; match files are checked
// on load.
func (s *Set) CheckMonotone() error {
	for _, f := range s.Facts {
		for a := range f.Axes {
			for st := 1; st < len(f.Axes[a]); st++ {
				if !subsetOf(f.Axes[a][st-1], f.Axes[a][st]) {
					return fmt.Errorf("match: fact %s axis %d: state %d values not a superset of state %d",
						f.Key, a, st, st-1)
				}
			}
		}
	}
	return nil
}

// subsetOf reports whether sorted set a ⊆ sorted set b.
func subsetOf(a, b []ValueID) bool {
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i >= len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}
