package costmodel

import (
	"testing"

	"x3/internal/cube"
	"x3/internal/lattice"
	"x3/internal/pattern"
)

// The tests in this file run the selector under a count budget: every
// candidate weighs one unit and Budget is k, which makes Select HRU's
// top-k greedy on cell counts.

// threeAxisLattice builds a plain 2^3 LND lattice.
func threeAxisLattice(t *testing.T) *lattice.Lattice {
	t.Helper()
	q := &pattern.CubeQuery{
		FactVar:  "$f",
		FactPath: pattern.MustParsePath("//f"),
		Agg:      pattern.Count,
		Axes: []pattern.AxisSpec{
			{Var: "$a", Path: pattern.MustParsePath("/a"), Relax: pattern.RelaxSet(0).With(pattern.LND)},
			{Var: "$b", Path: pattern.MustParsePath("/b"), Relax: pattern.RelaxSet(0).With(pattern.LND)},
			{Var: "$c", Path: pattern.MustParsePath("/c"), Relax: pattern.RelaxSet(0).With(pattern.LND)},
		},
	}
	lat, err := lattice.New(q)
	if err != nil {
		t.Fatal(err)
	}
	return lat
}

// unitCandidates prices every point at one unit, with cells shrinking
// with the number of deleted axes: 1, 4, 16, 64.
func unitCandidates(lat *lattice.Lattice) []Candidate {
	var out []Candidate
	for _, p := range lat.Points() {
		live := len(lat.LiveAxes(p))
		out = append(out, Candidate{PID: lat.ID(p), Cells: int64(1) << (2 * live), Bytes: 1})
	}
	return out
}

// selectUnits runs a count-budget selection of k and returns the picked
// decisions in greedy order.
func selectUnits(t *testing.T, lat *lattice.Lattice, props cube.Props, cands []Candidate, base int64, k int) []Decision {
	t.Helper()
	keep, decisions, err := Select(lat, props, cands, Config{Budget: int64(k), BaseCost: base})
	if err != nil {
		t.Fatal(err)
	}
	if len(keep) > k {
		t.Fatalf("kept %d cuboids, budget %d", len(keep), k)
	}
	got := make([]Decision, len(keep))
	for _, d := range decisions {
		if d.Materialize {
			got[d.Round-1] = d
		}
	}
	return got
}

func TestSelectGreedyPicksTopFirst(t *testing.T) {
	lat := threeAxisLattice(t)
	got := selectUnits(t, lat, cube.AssumeAllProps{}, unitCandidates(lat), 10_000, 3)
	if len(got) == 0 {
		t.Fatal("no picks")
	}
	// The finest cuboid answers everything at cost 64 << 10000, so it is
	// the first pick.
	if first := lat.FromID(got[0].PID); len(lat.LiveAxes(first)) != 3 {
		t.Errorf("first pick = %v, want the top cuboid", lat.Label(first))
	}
	if got[0].Benefit <= 0 {
		t.Errorf("benefit = %v", got[0].Benefit)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Benefit > got[i-1].Benefit {
			t.Errorf("benefit grew: %+v", got)
		}
	}
}

func TestSelectNothingSafeMeansSelfOnly(t *testing.T) {
	lat := threeAxisLattice(t)
	got := selectUnits(t, lat, cube.PessimisticProps{}, unitCandidates(lat), 10_000, 8)
	// With no safe edges a view only answers itself, so each pick is
	// credited with its own query alone.
	for _, d := range got {
		if d.Benefit != float64(10_000-d.Cells) {
			t.Errorf("view %v benefit %v, want %d", lat.Label(lat.FromID(d.PID)), d.Benefit, 10_000-d.Cells)
		}
	}
	if len(got) != 8 {
		t.Errorf("picked %d views, want all 8", len(got))
	}
}

func TestSelectStopsWhenNoBenefit(t *testing.T) {
	lat := threeAxisLattice(t)
	// Base is as cheap as any view: no view helps.
	if got := selectUnits(t, lat, cube.AssumeAllProps{}, unitCandidates(lat), 1, 5); len(got) != 0 {
		t.Errorf("picked %d views despite free base", len(got))
	}
}

// axisProps certifies both properties on the listed axes only.
type axisProps struct{ safe map[int]bool }

func (a *axisProps) Disjoint(axis, _ int) bool { return a.safe[axis] }
func (a *axisProps) Covered(axis, _ int) bool  { return a.safe[axis] }

func TestSelectPartialSafety(t *testing.T) {
	lat := threeAxisLattice(t)
	// Only axis 2 ($c) is safe to drop, so every view answers at most
	// itself plus the one roll-up dropping $c. The cheapest two-query
	// cover is the $c-only cuboid (4 cells), answering itself and the
	// bottom.
	got := selectUnits(t, lat, &axisProps{safe: map[int]bool{2: true}}, unitCandidates(lat), 10_000, 1)
	if len(got) != 1 {
		t.Fatalf("picked %d views, want 1", len(got))
	}
	if l := lat.Label(lat.FromID(got[0].PID)); l != "[$a:LND $b:LND $c:rigid]" {
		t.Errorf("pick = %s", l)
	}
	if want := float64(10_000-4) * 2; got[0].Benefit != want {
		t.Errorf("benefit = %v, want %v", got[0].Benefit, want)
	}
}

func TestSelectErrors(t *testing.T) {
	lat := threeAxisLattice(t)
	cands := unitCandidates(lat)
	if _, _, err := Select(lat, nil, append(cands, cands[0]), Config{Budget: 2, BaseCost: 100}); err == nil {
		t.Error("duplicate pid accepted")
	}
	// A base cost below one is floored at one, which no view beats.
	if got := selectUnits(t, lat, cube.AssumeAllProps{}, cands, 0, 2); len(got) != 0 {
		t.Errorf("zero base cost: picked %d views", len(got))
	}
	// nil props: no edge is safe, selection still works.
	if got := selectUnits(t, lat, nil, cands, 100, 2); len(got) != 2 {
		t.Errorf("nil props: picked %d views, want 2", len(got))
	}
}

// TestSelectTieTakesFewerCells builds an equal-benefit tie between a
// finer cuboid answering itself and one roll-up, 2×(100−60), and a small
// cuboid answering only itself, 100−20. The small one wins despite its
// higher pid, as HRU on cell counts decides.
func TestSelectTieTakesFewerCells(t *testing.T) {
	lat := threeAxisLattice(t)
	top := lat.ID(lat.Top())                // answers itself and [$a $b rigid, $c LND]
	small := lat.ID(lattice.Point{1, 0, 1}) // $c already dropped: answers itself
	props := &axisProps{safe: map[int]bool{2: true}}
	var cands []Candidate
	for _, p := range lat.Points() {
		c := Candidate{PID: lat.ID(p), Cells: 100, Bytes: 1} // no benefit
		switch c.PID {
		case top:
			c.Cells = 60
		case small:
			c.Cells = 20
		}
		cands = append(cands, c)
	}
	if top >= small {
		t.Fatalf("top pid %d must be below the small cuboid's %d for the tie to test anything", top, small)
	}
	got := selectUnits(t, lat, props, cands, 100, 2)
	if len(got) != 2 || got[0].PID != small || got[1].PID != top {
		t.Fatalf("picks %+v, want pid %d then pid %d", got, small, top)
	}
	if got[0].Benefit != 80 || got[1].Benefit != 80 {
		t.Errorf("benefits %v and %v, want 80 each", got[0].Benefit, got[1].Benefit)
	}
}

// TestSelectEmptyCuboidAnswersFree pins how an empty cuboid is priced:
// like every cuboid, at its cell count floored at one scan unit, so it
// is the most beneficial pick.
func TestSelectEmptyCuboidAnswersFree(t *testing.T) {
	lat := threeAxisLattice(t)
	cands := unitCandidates(lat)
	empty := lat.ID(lattice.Point{0, 1, 0})
	for i := range cands {
		if cands[i].PID == empty {
			cands[i].Cells = 0
		}
	}
	got := selectUnits(t, lat, cube.PessimisticProps{}, cands, 10_000, 1)
	if len(got) != 1 || got[0].PID != empty || got[0].Benefit != 10_000-1 {
		t.Fatalf("picks %+v, want the empty cuboid %d with benefit %d", got, empty, 10_000-1)
	}
}
