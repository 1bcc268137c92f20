package cube

import (
	"x3/internal/lattice"
	"x3/internal/match"
)

// MeasuredProps holds summarizability properties observed by scanning a
// concrete fact table: Disjoint(a,s) iff no fact matched more than one
// value, Covered(a,s) iff every fact matched at least one. For that data
// they are exact, so they are valid guarantees to hand the CUST algorithms
// — the experimental §4.1/§4.2 setups "controlled the input" this way.
// Schema-derived properties (package schema) are the a-priori alternative.
type MeasuredProps struct {
	dis [][]bool
	cov [][]bool
}

// Disjoint implements Props.
func (m *MeasuredProps) Disjoint(a, s int) bool { return m.dis[a][s] }

// Covered implements Props.
func (m *MeasuredProps) Covered(a, s int) bool { return m.cov[a][s] }

// GloballyDisjoint reports whether disjointness holds at every live state.
func (m *MeasuredProps) GloballyDisjoint() bool {
	for _, row := range m.dis {
		for _, v := range row {
			if !v {
				return false
			}
		}
	}
	return true
}

// GloballyCovered reports whether coverage holds at every live state.
func (m *MeasuredProps) GloballyCovered() bool {
	for _, row := range m.cov {
		for _, v := range row {
			if !v {
				return false
			}
		}
	}
	return true
}

// MeasureProps scans the source once and returns the observed properties.
func MeasureProps(lat *lattice.Lattice, src Source) (*MeasuredProps, error) {
	m := &MeasuredProps{}
	for a := 0; a < lat.NumAxes(); a++ {
		live := lat.Ladders[a].Len()
		if lat.Ladders[a].HasDeleted() {
			live--
		}
		dis := make([]bool, live)
		cov := make([]bool, live)
		for s := range dis {
			dis[s], cov[s] = true, true
		}
		m.dis = append(m.dis, dis)
		m.cov = append(m.cov, cov)
	}
	if err := m.observe(src); err != nil {
		return nil, err
	}
	return m, nil
}

// Absorb returns a copy of m ANDed with what src alone shows; m itself
// is unchanged. Both properties are universal over facts, so inserting
// facts can only flip one from true to false: MeasureProps(A).Absorb(B)
// equals MeasureProps(A∪B) on every (axis, state), at the cost of
// scanning B only. That is how a store keeps measured properties exact
// under appends without re-scanning its corpus.
func (m *MeasuredProps) Absorb(src Source) (*MeasuredProps, error) {
	n := &MeasuredProps{dis: cloneRows(m.dis), cov: cloneRows(m.cov)}
	if err := n.observe(src); err != nil {
		return nil, err
	}
	return n, nil
}

// observe clears every property a fact of src violates.
func (m *MeasuredProps) observe(src Source) error {
	return src.Each(func(f *match.Fact) error {
		for a := range f.Axes {
			for s := range f.Axes[a] {
				n := len(f.Axes[a][s])
				if n > 1 {
					m.dis[a][s] = false
				}
				if n == 0 {
					m.cov[a][s] = false
				}
			}
		}
		return nil
	})
}

func cloneRows(rows [][]bool) [][]bool {
	out := make([][]bool, len(rows))
	for i, r := range rows {
		out[i] = append([]bool(nil), r...)
	}
	return out
}

var _ Props = (*MeasuredProps)(nil)

// EdgeSafe reports whether the lattice edge into p that relaxed axis a is
// a safe roll-up — the paper's §3.2/§3.7 rule, which TDCUST, the serving
// planner and the view selector all apply: for an LND step the dropped
// axis must be covered and disjoint at the finer state; for a ladder
// state step it must be covered below and disjoint above, making the two
// states' value sets identical.
func EdgeSafe(lat *lattice.Lattice, props Props, p lattice.Point, a int) bool {
	sq := int(p[a]) - 1
	if lat.Deleted(p, a) {
		return props.Covered(a, sq) && props.Disjoint(a, sq)
	}
	return props.Covered(a, sq) && props.Disjoint(a, int(p[a]))
}

// PathSafe reports whether cuboid `to` can be derived from the finer
// cuboid `from` purely over safe relaxation edges. `from` must be
// componentwise no more relaxed than `to`; edge safety depends only on
// the stepped axis and its target state, so any monotone path between the
// two points has the same safety — PathSafe checks each (axis, state)
// step once. A nil props certifies nothing, so only the empty path
// (from == to) is safe.
func PathSafe(lat *lattice.Lattice, props Props, from, to lattice.Point) bool {
	p := from.Clone()
	for a := range to {
		if from[a] > to[a] {
			return false // `from` is coarser on axis a: not an ancestor
		}
		for s := int(from[a]) + 1; s <= int(to[a]); s++ {
			p[a] = uint8(s)
			if props == nil || !EdgeSafe(lat, props, p, a) {
				return false
			}
		}
		p[a] = to[a]
	}
	return true
}
