package x3

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"x3/internal/cube"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/sjoin"
)

// CubeResult holds a computed relaxed cube.
type CubeResult struct {
	res   *cube.Result
	stats cube.Stats
	facts int
}

// NumFacts returns the number of matched facts the cube was computed over.
func (r *CubeResult) NumFacts() int { return r.facts }

// Absorb incrementally folds the facts of another database (for instance,
// a newly arrived document of the same schema) into this computed cube,
// without recomputation. All supported aggregates are distributive or
// algebraic under insertion; deletions and iceberg cubes are not
// supported. It returns the number of facts absorbed.
func (r *CubeResult) Absorb(db *Database) (int, error) {
	lat := r.res.Lattice
	var (
		set *match.Set
		err error
	)
	if db.doc != nil {
		set, err = match.EvaluateWith(db.doc, lat, r.res.Dicts)
	} else {
		set, err = sjoin.EvaluateWith(db.st, lat, r.res.Dicts)
	}
	if err != nil {
		return 0, err
	}
	added, err := cube.Maintain(r.res, set)
	if err != nil {
		return 0, err
	}
	r.facts += int(added)
	return int(added), nil
}

// TotalCells returns the number of (cuboid, group) cells in the cube.
func (r *CubeResult) TotalCells() int64 { return r.res.Cells }

// Stats returns the computation statistics (passes, sorts, spills...).
func (r *CubeResult) Stats() cube.Stats { return r.stats }

// Cuboid addresses one lattice point by relaxation-state labels: one entry
// per axis variable, e.g. {"$n": "SP", "$p": "rigid", "$y": "LND"}. Omitted
// axes default to their most relaxed state.
func (r *CubeResult) Cuboid(states map[string]string) (*Cuboid, error) {
	p, err := r.res.Lattice.PointFromStates(states)
	if err != nil {
		return nil, err
	}
	return &Cuboid{res: r.res, point: p}, nil
}

// Cuboids lists the labels of every lattice point, top (rigid) first.
func (r *CubeResult) Cuboids() []string {
	lat := r.res.Lattice
	var out []string
	for _, p := range lat.Points() {
		out = append(out, lat.Label(p))
	}
	return out
}

// EachCuboid calls fn for every lattice point.
func (r *CubeResult) EachCuboid(fn func(c *Cuboid) error) error {
	for _, p := range r.res.Lattice.Points() {
		if err := fn(&Cuboid{res: r.res, point: p}); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV writes every cell of the cube as CSV: cuboid label, one column
// per axis value ("" for deleted axes), and the aggregate.
func (r *CubeResult) WriteCSV(w io.Writer) error {
	lat := r.res.Lattice
	if _, err := fmt.Fprintf(w, "cuboid,%s,value\n", strings.Join(varNames(lat), ",")); err != nil {
		return err
	}
	return r.EachCuboid(func(c *Cuboid) error {
		for _, row := range c.Rows() {
			cols := make([]string, lat.NumAxes())
			for i, a := range lat.LiveAxes(c.point) {
				cols[a] = row.Values[i]
			}
			if _, err := fmt.Fprintf(w, "%s,%s,%g\n", c.Label(), strings.Join(cols, ","), row.Value); err != nil {
				return err
			}
		}
		return nil
	})
}

func varNames(lat *lattice.Lattice) []string {
	out := make([]string, len(lat.Ladders))
	for i, lad := range lat.Ladders {
		out[i] = strings.TrimPrefix(lad.Spec.Var, "$")
	}
	return out
}

// Cuboid is one lattice point of a computed cube.
type Cuboid struct {
	res   *cube.Result
	point lattice.Point
}

// Label renders the cuboid's relaxation states.
func (c *Cuboid) Label() string { return c.res.Lattice.Label(c.point) }

// Pattern renders the cuboid's tree pattern (a Fig. 3 box).
func (c *Cuboid) Pattern() string { return c.res.Lattice.Tree(c.point).String() }

// Size returns the number of groups in the cuboid.
func (c *Cuboid) Size() int { return c.res.CuboidSize(c.point) }

// Get returns the aggregate of the group with the given values (one per
// live axis, in axis order).
func (c *Cuboid) Get(values ...string) (float64, bool) {
	return c.res.Get(c.point, values...)
}

// GroupRow is one cell of a cuboid.
type GroupRow struct {
	// Values holds one grouping value per live axis, in axis order.
	Values []string
	// Value is the aggregate.
	Value float64
}

// Rows returns every cell of the cuboid, sorted by values.
func (c *Cuboid) Rows() []GroupRow {
	lat := c.res.Lattice
	live := lat.LiveAxes(c.point)
	var out []GroupRow
	for _, key := range c.res.Keys(c.point) {
		vals := make([]string, len(key))
		for i, vid := range key {
			vals[i] = c.res.Dicts[live[i]].Value(vid)
		}
		s, ok := c.res.State(c.point, key)
		if !ok {
			continue
		}
		out = append(out, GroupRow{Values: vals, Value: s.Final(lat.Query.Agg)})
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i].Values, "\x00") < strings.Join(out[j].Values, "\x00")
	})
	return out
}
