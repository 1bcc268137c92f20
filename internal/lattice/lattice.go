// Package lattice models the X³ relaxed-cube lattice (paper §2.3, Fig. 3).
//
// A lattice point — a cuboid — assigns each grouping axis one state of its
// relaxation ladder. The global top is the rigid pattern (finest grouping);
// the global bottom relaxes every axis fully (for all-LND queries, a single
// all-facts group). An edge relaxes exactly one axis by one ladder step.
// For LND-only queries the lattice degenerates to the classic 2^d
// relational cube lattice.
package lattice

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"x3/internal/pattern"
	"x3/internal/relax"
)

// Point is a cuboid: one ladder-state index per axis. Points are owned by
// a Lattice and must have exactly one entry per axis.
type Point []uint8

// Clone returns a copy of p.
func (p Point) Clone() Point {
	out := make(Point, len(p))
	copy(out, p)
	return out
}

// Lattice is the cuboid lattice of one X³ query.
type Lattice struct {
	Query   *pattern.CubeQuery
	Ladders []relax.Ladder
	dims    []int // states per axis
	size    int   // total number of points
}

// New builds the lattice for a validated query.
func New(q *pattern.CubeQuery) (*Lattice, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	l := &Lattice{Query: q, Ladders: relax.BuildLadders(q)}
	l.size = 1
	for _, lad := range l.Ladders {
		l.dims = append(l.dims, lad.Len())
		l.size *= lad.Len()
		if l.size > 1<<22 {
			return nil, fmt.Errorf("lattice: cube has over %d cuboids; refusing", 1<<22)
		}
	}
	return l, nil
}

// NumAxes returns the number of grouping axes.
func (l *Lattice) NumAxes() int { return len(l.Ladders) }

// Dims returns the ladder length per axis.
func (l *Lattice) Dims() []int { return l.dims }

// Size returns the number of cuboids.
func (l *Lattice) Size() int { return l.size }

// Top returns the rigid point (finest aggregation of interest).
func (l *Lattice) Top() Point { return make(Point, len(l.dims)) }

// Bottom returns the fully relaxed point (coarsest aggregation).
func (l *Lattice) Bottom() Point {
	p := make(Point, len(l.dims))
	for i, d := range l.dims {
		p[i] = uint8(d - 1)
	}
	return p
}

// ID maps a point to a dense identifier in [0, Size).
func (l *Lattice) ID(p Point) uint32 {
	var id uint32
	for i, s := range p {
		id = id*uint32(l.dims[i]) + uint32(s)
	}
	return id
}

// FromID inverts ID.
func (l *Lattice) FromID(id uint32) Point {
	p := make(Point, len(l.dims))
	for i := len(l.dims) - 1; i >= 0; i-- {
		d := uint32(l.dims[i])
		p[i] = uint8(id % d)
		id /= d
	}
	return p
}

// Points enumerates every cuboid, top (rigid) first in mixed-radix order.
func (l *Lattice) Points() []Point {
	out := make([]Point, 0, l.size)
	p := l.Top()
	for {
		out = append(out, p.Clone())
		i := len(p) - 1
		for i >= 0 {
			p[i]++
			if int(p[i]) < l.dims[i] {
				break
			}
			p[i] = 0
			i--
		}
		if i < 0 {
			return out
		}
	}
}

// Deleted reports whether axis a is deleted (LND state) at point p.
func (l *Lattice) Deleted(p Point, a int) bool {
	return l.Ladders[a].States[p[a]].Deleted()
}

// LiveAxes returns the indexes of axes that still group at p.
func (l *Lattice) LiveAxes(p Point) []int {
	var out []int
	for a := range p {
		if !l.Deleted(p, a) {
			out = append(out, a)
		}
	}
	return out
}

// Children returns the points one relaxation step below p (one axis, one
// ladder step more relaxed). In the paper's drawing these are the nodes a
// lattice edge leads to.
func (l *Lattice) Children(p Point) []Point {
	var out []Point
	for a := range p {
		if int(p[a])+1 < l.dims[a] {
			c := p.Clone()
			c[a]++
			out = append(out, c)
		}
	}
	return out
}

// Parents returns the points one relaxation step above p (less relaxed).
func (l *Lattice) Parents(p Point) []Point {
	var out []Point
	for a := range p {
		if p[a] > 0 {
			c := p.Clone()
			c[a]--
			out = append(out, c)
		}
	}
	return out
}

// StatePath returns the axis path of axis a in the state chosen by p, or
// nil when deleted.
func (l *Lattice) StatePath(p Point, a int) pattern.Path {
	return l.Ladders[a].States[p[a]].Path
}

// Label renders a point as e.g. "[$n:SP $p:rigid $y:LND]".
func (l *Lattice) Label(p Point) string {
	parts := make([]string, len(p))
	for a := range p {
		parts[a] = l.Ladders[a].Spec.Var + ":" + l.Ladders[a].States[p[a]].Label
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// PointFromStates resolves axis-variable → state-label assignments, e.g.
// {"$n": "SP", "$y": "rigid"}, to a point; labels match case-insensitively
// and omitted axes default to their most relaxed state. Variables are
// checked in sorted order, so when several name no axis every call
// reports the same one.
func (l *Lattice) PointFromStates(states map[string]string) (Point, error) {
	p := l.Bottom()
	for _, v := range slices.Sorted(maps.Keys(states)) {
		a, err := l.AxisByVar(v)
		if err != nil {
			return nil, err
		}
		si := slices.IndexFunc(l.Ladders[a].States, func(st relax.State) bool { return strings.EqualFold(st.Label, states[v]) })
		if si < 0 {
			return nil, fmt.Errorf("lattice: axis %s has no state %q", v, states[v])
		}
		p[a] = uint8(si)
	}
	return p, nil
}

// AxisByVar returns the axis index of a grouping variable.
func (l *Lattice) AxisByVar(v string) (int, error) {
	a := slices.IndexFunc(l.Ladders, func(lad relax.Ladder) bool { return lad.Spec.Var == v })
	if a < 0 {
		return 0, fmt.Errorf("lattice: query has no axis %q", v)
	}
	return a, nil
}

// Tree returns the branched tree pattern of point p (a Fig. 3 box).
func (l *Lattice) Tree(p Point) *relax.Tree {
	return relax.PointTree(l.Query, l.Ladders, p)
}

// MostRelaxedTree returns the Fig. 2 pattern for the whole lattice.
func (l *Lattice) MostRelaxedTree() *relax.Tree {
	return relax.MostRelaxedTree(l.Query, l.Ladders)
}

// Validate checks that p belongs to this lattice.
func (l *Lattice) Validate(p Point) error {
	if len(p) != len(l.dims) {
		return fmt.Errorf("lattice: point has %d axes, want %d", len(p), len(l.dims))
	}
	for a := range p {
		if int(p[a]) >= l.dims[a] {
			return fmt.Errorf("lattice: axis %d state %d out of range [0,%d)", a, p[a], l.dims[a])
		}
	}
	return nil
}
