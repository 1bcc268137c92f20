package lattice

import (
	"strings"
	"testing"

	"x3/internal/pattern"
)

func rs(rels ...pattern.Relaxation) pattern.RelaxSet {
	var s pattern.RelaxSet
	for _, r := range rels {
		s = s.With(r)
	}
	return s
}

func query1() *pattern.CubeQuery {
	return &pattern.CubeQuery{
		FactVar:    "$b",
		FactPath:   pattern.MustParsePath("//publication"),
		FactIDPath: pattern.MustParsePath("/@id"),
		Axes: []pattern.AxisSpec{
			{Var: "$n", Path: pattern.MustParsePath("/author/name"), Relax: rs(pattern.LND, pattern.SP, pattern.PCAD)},
			{Var: "$p", Path: pattern.MustParsePath("//publisher/@id"), Relax: rs(pattern.LND, pattern.PCAD)},
			{Var: "$y", Path: pattern.MustParsePath("/year"), Relax: rs(pattern.LND)},
		},
		Agg: pattern.Count,
	}
}

func mustNew(t *testing.T, q *pattern.CubeQuery) *Lattice {
	t.Helper()
	l, err := New(q)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return l
}

func TestQuery1LatticeShape(t *testing.T) {
	l := mustNew(t, query1())
	// Ladders: $n=4, $p=2, $y=2 -> 16 cuboids.
	if got := l.Size(); got != 16 {
		t.Fatalf("Size = %d, want 16", got)
	}
	pts := l.Points()
	if len(pts) != 16 {
		t.Fatalf("Points = %d", len(pts))
	}
	// All distinct IDs, FromID inverts.
	seen := map[uint32]bool{}
	for _, p := range pts {
		id := l.ID(p)
		if seen[id] {
			t.Fatalf("duplicate ID %d", id)
		}
		seen[id] = true
		back := l.FromID(id)
		for a := range p {
			if back[a] != p[a] {
				t.Fatalf("FromID(ID(%v)) = %v", p, back)
			}
		}
		if err := l.Validate(p); err != nil {
			t.Fatalf("Validate(%v): %v", p, err)
		}
	}
}

func TestTopBottom(t *testing.T) {
	l := mustNew(t, query1())
	top := l.Top()
	if len(l.LiveAxes(top)) != 3 {
		t.Errorf("top live axes = %v", l.LiveAxes(top))
	}
	bot := l.Bottom()
	if len(l.LiveAxes(bot)) != 0 {
		t.Errorf("bottom live axes = %v", l.LiveAxes(bot))
	}
	if len(l.Parents(top)) != 0 {
		t.Errorf("top has parents")
	}
	if len(l.Children(bot)) != 0 {
		t.Errorf("bottom has children")
	}
	// Top has one child per axis.
	if got := len(l.Children(top)); got != 3 {
		t.Errorf("top children = %d, want 3", got)
	}
}

func TestChildrenParentsInverse(t *testing.T) {
	l := mustNew(t, query1())
	for _, p := range l.Points() {
		for _, c := range l.Children(p) {
			found := false
			for _, pp := range l.Parents(c) {
				if l.ID(pp) == l.ID(p) {
					found = true
				}
			}
			if !found {
				t.Fatalf("child %v of %v does not list it as parent", c, p)
			}
		}
	}
}

func TestEdgeCountMatchesFormula(t *testing.T) {
	// Total downward edges = sum over points of number of axes not at max.
	l := mustNew(t, query1())
	edges := 0
	for _, p := range l.Points() {
		edges += len(l.Children(p))
	}
	// For dims (4,2,2): edges = 3*2*2*... sum formula: for each axis a,
	// (dims[a]-1) * prod(other dims) = 3*4 + 1*8 + 1*8 = 28.
	if edges != 28 {
		t.Errorf("edges = %d, want 28", edges)
	}
}

func TestLNDOnlyDegeneratesToRelationalCube(t *testing.T) {
	q := &pattern.CubeQuery{
		FactVar:  "$b",
		FactPath: pattern.MustParsePath("//publication"),
		Axes: []pattern.AxisSpec{
			{Var: "$a", Path: pattern.MustParsePath("/x"), Relax: rs(pattern.LND)},
			{Var: "$b2", Path: pattern.MustParsePath("/y"), Relax: rs(pattern.LND)},
			{Var: "$c", Path: pattern.MustParsePath("/z"), Relax: rs(pattern.LND)},
		},
		Agg: pattern.Count,
	}
	l := mustNew(t, q)
	if l.Size() != 8 {
		t.Fatalf("LND-only 3-axis lattice size = %d, want 2^3", l.Size())
	}
}

func TestDeletedAndStatePath(t *testing.T) {
	l := mustNew(t, query1())
	p := Point{3, 0, 1} // $n LND, $p rigid, $y LND
	if !l.Deleted(p, 0) || l.Deleted(p, 1) || !l.Deleted(p, 2) {
		t.Fatalf("Deleted flags wrong for %v", p)
	}
	if got := l.StatePath(p, 1).String(); got != "//publisher/@id" {
		t.Errorf("StatePath = %q", got)
	}
	if l.StatePath(p, 0) != nil {
		t.Errorf("deleted axis has a path")
	}
	lbl := l.Label(p)
	if !strings.Contains(lbl, "$n:LND") || !strings.Contains(lbl, "$p:rigid") {
		t.Errorf("Label = %q", lbl)
	}
}

func TestLatticeTreeRendering(t *testing.T) {
	l := mustNew(t, query1())
	s := l.Tree(Point{0, 0, 0}).String()
	if !strings.Contains(s, "/author") {
		t.Errorf("rigid point tree:\n%s", s)
	}
	s = l.MostRelaxedTree().String()
	if !strings.Contains(s, "//name*") {
		t.Errorf("most relaxed tree:\n%s", s)
	}
}

func TestValidateErrors(t *testing.T) {
	l := mustNew(t, query1())
	if err := l.Validate(Point{0, 0}); err == nil {
		t.Error("short point accepted")
	}
	if err := l.Validate(Point{9, 0, 0}); err == nil {
		t.Error("out-of-range state accepted")
	}
	// Invalid query is rejected by New.
	if _, err := New(&pattern.CubeQuery{}); err == nil {
		t.Error("New accepted invalid query")
	}
}

func TestHugeLatticeRefused(t *testing.T) {
	q := &pattern.CubeQuery{
		FactVar:  "$b",
		FactPath: pattern.MustParsePath("//f"),
		Agg:      pattern.Count,
	}
	for i := 0; i < 24; i++ {
		q.Axes = append(q.Axes, pattern.AxisSpec{
			Var:   "$v" + string(rune('a'+i)),
			Path:  pattern.Path{{Axis: pattern.Child, Tag: "t" + string(rune('a'+i))}},
			Relax: rs(pattern.LND),
		})
	}
	if _, err := New(q); err == nil {
		t.Error("2^24-cuboid lattice accepted")
	}
}

func TestPointFromStates(t *testing.T) {
	l := mustNew(t, query1())
	p, err := l.PointFromStates(map[string]string{"$n": "sp", "$y": "rigid"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := l.Label(p), "[$n:SP $p:LND $y:rigid]"; got != want {
		t.Fatalf("resolved %s, want %s", got, want)
	}
	if p, err := l.PointFromStates(nil); err != nil || l.Label(p) != l.Label(l.Bottom()) {
		t.Fatalf("empty assignment: %v, %v", p, err)
	}
	if _, err := l.PointFromStates(map[string]string{"$n": "sideways"}); err == nil || !strings.Contains(err.Error(), `no state "sideways"`) {
		t.Fatalf("bad state label: %v", err)
	}
	// Variables are checked in sorted order: of two unknown axes the
	// first in that order is reported, on every call.
	for range 50 {
		_, err := l.PointFromStates(map[string]string{"$zz": "rigid", "$aa": "rigid", "$n": "rigid"})
		if err == nil || !strings.Contains(err.Error(), `no axis "$aa"`) {
			t.Fatalf("two unknown axes: %v, want $aa reported", err)
		}
	}
}
