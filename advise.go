package x3

import (
	"fmt"
	"strings"

	"x3/internal/costmodel"
	"x3/internal/cube"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/schema"
	"x3/internal/sjoin"
	"x3/internal/stats"
)

// AxisProperties reports the schema-inferred summarizability of one
// grouping axis at one relaxation state (paper §3.7).
type AxisProperties struct {
	Axis  string // the axis variable, e.g. "$n"
	State string // ladder state label: "rigid", "PC-AD", "SP"
	// Covered: the schema guarantees every fact matches at least one
	// value (total coverage).
	Covered bool
	// Disjoint: the schema guarantees at most one value per fact
	// (pairwise disjointness of groups).
	Disjoint bool
	// MinOccurs / MaxOccurs are the inferred occurrence bounds; MaxOccurs
	// is -1 when unbounded.
	MinOccurs, MaxOccurs int
}

// Advice is the outcome of analysing a query against a DTD: which
// summarizability properties hold where, and which algorithm the paper's
// §4.6 decision rules recommend.
type Advice struct {
	Properties []AxisProperties
	// Sparse recommendation and Dense recommendation (the density of the
	// cube depends on the data, not the schema).
	SparseAlgorithm string
	DenseAlgorithm  string
	// Reason is a one-line justification.
	Reason string
}

// Advise infers the lattice properties of the query from DTD text and
// applies the paper's algorithm-selection rules (§4.6): bottom-up for
// sparse cubes and top-down roll-up for dense ones when the required
// properties hold, the customized variants when properties hold only
// locally, and the unoptimized algorithms otherwise.
func Advise(q *Query, dtdText string) (*Advice, error) {
	d, err := schema.Parse(dtdText)
	if err != nil {
		return nil, err
	}
	props, err := schema.Infer(d, q.lat)
	if err != nil {
		return nil, err
	}
	adv := &Advice{}
	allCov, allDis, anyGuarantee := true, true, false
	for a, lad := range q.lat.Ladders {
		live := lad.Len()
		if lad.HasDeleted() {
			live--
		}
		for s := 0; s < live; s++ {
			iv := props.Interval(a, s)
			p := AxisProperties{
				Axis:      lad.Spec.Var,
				State:     lad.States[s].Label,
				Covered:   props.Covered(a, s),
				Disjoint:  props.Disjoint(a, s),
				MinOccurs: iv.Min,
				MaxOccurs: iv.Max,
			}
			adv.Properties = append(adv.Properties, p)
			allCov = allCov && p.Covered
			allDis = allDis && p.Disjoint
			anyGuarantee = anyGuarantee || p.Covered || p.Disjoint
		}
	}
	switch {
	case allCov && allDis:
		adv.SparseAlgorithm, adv.DenseAlgorithm = "BUCOPT", "TDOPTALL"
		adv.Reason = "coverage and disjointness hold globally: the fully optimized variants are correct"
	case allDis:
		adv.SparseAlgorithm, adv.DenseAlgorithm = "BUCOPT", "COUNTER"
		adv.Reason = "disjointness holds globally but coverage does not: top-down roll-up is unavailable"
	case anyGuarantee:
		adv.SparseAlgorithm, adv.DenseAlgorithm = "BUCCUST", "TDCUST"
		adv.Reason = "summarizability holds only at some lattice points: the customized variants exploit it and stay correct"
	default:
		adv.SparseAlgorithm, adv.DenseAlgorithm = "BUC", "COUNTER"
		adv.Reason = "no summarizability is guaranteed: only the unoptimized algorithms are correct"
	}
	return adv, nil
}

// String renders the advice as a small report.
func (a *Advice) String() string {
	var b strings.Builder
	for _, p := range a.Properties {
		max := fmt.Sprintf("%d", p.MaxOccurs)
		if p.MaxOccurs < 0 {
			max = "*"
		}
		fmt.Fprintf(&b, "%-6s %-6s occurs [%d,%s] covered=%-5t disjoint=%t\n",
			p.Axis, p.State, p.MinOccurs, max, p.Covered, p.Disjoint)
	}
	fmt.Fprintf(&b, "sparse cube: %s; dense cube: %s\n%s\n",
		a.SparseAlgorithm, a.DenseAlgorithm, a.Reason)
	return b.String()
}

// CubeEstimate predicts the shape of a cube before computing it, from one
// statistics-collection pass over the matched facts.
type CubeEstimate struct {
	// Facts is the number of matched facts.
	Facts int
	// Cuboids is the lattice size.
	Cuboids int
	// EstimatedCells sums the per-cuboid group-count estimates.
	EstimatedCells int64
	// TopCuboidCells estimates the finest cuboid alone.
	TopCuboidCells int64
	// Dense reports whether facts outnumber the finest cuboid's groups by
	// a wide margin — the §4.6 density criterion for preferring top-down
	// or counter-based computation.
	Dense bool
}

// Estimate matches the query and predicts cuboid sizes without computing
// the cube (attribute-independence estimates; see internal/stats). Use it
// to pick between the sparse- and dense-cube recommendations of Advise,
// or to size a memory budget.
func (db *Database) Estimate(q *Query) (*CubeEstimate, error) {
	lat, err := lattice.New(q.spec)
	if err != nil {
		return nil, err
	}
	var set *match.Set
	if db.doc != nil {
		set, err = match.Evaluate(db.doc, lat)
	} else {
		set, err = sjoin.Evaluate(db.st, lat)
	}
	if err != nil {
		return nil, err
	}
	st, err := stats.Collect(lat, set)
	if err != nil {
		return nil, err
	}
	est := &CubeEstimate{Facts: set.NumFacts(), Cuboids: lat.Size()}
	for id, n := range st.EstimateAllSizes(lat) {
		est.EstimatedCells += n
		if id == lat.ID(lat.Top()) {
			est.TopCuboidCells = n
		}
	}
	est.Dense = est.TopCuboidCells > 0 && int64(est.Facts) >= 4*est.TopCuboidCells
	return est, nil
}

// ViewSuggestion is one cuboid recommended for materialization.
type ViewSuggestion struct {
	// Cuboid is the relaxation-state label, e.g. "[$n:SP $p:LND $y:rigid]".
	Cuboid string
	// Size is the cuboid's cell count.
	Size int64
	// Benefit is the total query-cost reduction credited when it was
	// greedily selected.
	Benefit int64
}

// SuggestViews picks up to k cuboids of this computed cube worth
// materializing, greedily maximizing query-cost reduction
// (Harinarayan–Rajaraman–Ullman) under the XML constraint that a
// materialized cuboid only answers coarser ones reachable through
// summarizability-safe relaxation steps. The DTD supplies those
// guarantees; pass "" to measure nothing safe (each view then only
// answers itself).
func (r *CubeResult) SuggestViews(k int, dtdText string) ([]ViewSuggestion, error) {
	if k <= 0 {
		return nil, fmt.Errorf("x3: SuggestViews needs k > 0, got %d", k)
	}
	lat := r.res.Lattice
	var props cube.Props
	if dtdText != "" {
		d, err := schema.Parse(dtdText)
		if err != nil {
			return nil, err
		}
		props, err = schema.Infer(d, lat)
		if err != nil {
			return nil, err
		}
	}
	cands := make([]costmodel.Candidate, 0, lat.Size())
	for _, p := range lat.Points() {
		cands = append(cands, costmodel.Candidate{PID: lat.ID(p), Cells: int64(r.res.CuboidSize(p)), Bytes: 1})
	}
	pids, decisions, err := costmodel.Select(lat, props, cands, costmodel.Config{Budget: int64(k), BaseCost: int64(r.facts)})
	if err != nil {
		return nil, err
	}
	// Report the picks in greedy order: Round is 1-based and dense.
	out := make([]ViewSuggestion, len(pids))
	for _, d := range decisions {
		if d.Materialize {
			out[d.Round-1] = ViewSuggestion{Cuboid: lat.Label(lat.FromID(d.PID)), Size: d.Cells, Benefit: int64(d.Benefit)}
		}
	}
	return out, nil
}

// LatticeSketch renders every cuboid of the query's relaxed-cube lattice
// as its tree pattern — the textual form of the paper's Fig. 3.
func (q *Query) LatticeSketch() string {
	var b strings.Builder
	for _, p := range q.lat.Points() {
		fmt.Fprintf(&b, "%s\n", q.lat.Label(p))
		tree := q.lat.Tree(p).String()
		for _, line := range strings.Split(strings.TrimRight(tree, "\n"), "\n") {
			fmt.Fprintf(&b, "    %s\n", line)
		}
	}
	return b.String()
}
