package cube

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/pattern"
)

// TestAbsorbEqualsRemeasure pins the monotonicity argument that lets a
// store keep measured properties under appends without re-scanning: for
// any split of a fact set into A then B, MeasureProps(A).Absorb(B) equals
// MeasureProps(A∪B) on every (axis, state), and the receiver is left as
// it was. The sets mix empty value sets (coverage violations) and
// multi-valued ones (disjointness violations) at several rates, and the
// splits include empty prefixes and empty deltas.
func TestAbsorbEqualsRemeasure(t *testing.T) {
	shapes := [][]int{{1}, {2, 3}, {3, 1, 2}}
	rates := []struct{ missing, repeat float64 }{{0, 0}, {0.05, 0}, {0, 0.1}, {0.1, 0.3}, {0.5, 0.5}}
	flips := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shape := shapes[int(seed)%len(shapes)]
		r := rates[int(seed)%len(rates)]
		n := rng.Intn(40)
		lat, set := synthSet(t, rng, shape, n, 6, r.missing, r.repeat)
		for _, cut := range []int{0, rng.Intn(n + 1), n} {
			t.Run(fmt.Sprintf("seed%d/cut%d", seed, cut), func(t *testing.T) {
				a := &match.Set{Lattice: lat, Dicts: set.Dicts, Facts: set.Facts[:cut]}
				b := &match.Set{Lattice: lat, Dicts: set.Dicts, Facts: set.Facts[cut:]}
				pa, err := MeasureProps(lat, a)
				if err != nil {
					t.Fatal(err)
				}
				before := &MeasuredProps{dis: cloneRows(pa.dis), cov: cloneRows(pa.cov)}
				got, err := pa.Absorb(b)
				if err != nil {
					t.Fatal(err)
				}
				want, err := MeasureProps(lat, set)
				if err != nil {
					t.Fatal(err)
				}
				for ax := range want.dis {
					for s := range want.dis[ax] {
						if got.Disjoint(ax, s) != want.Disjoint(ax, s) || got.Covered(ax, s) != want.Covered(ax, s) {
							t.Fatalf("axis %d state %d: absorbed (dis %v, cov %v), re-measured (dis %v, cov %v)",
								ax, s, got.Disjoint(ax, s), got.Covered(ax, s), want.Disjoint(ax, s), want.Covered(ax, s))
						}
						if pa.Disjoint(ax, s) != got.Disjoint(ax, s) || pa.Covered(ax, s) != got.Covered(ax, s) {
							flips++
						}
					}
				}
				if !reflect.DeepEqual(pa, before) {
					t.Fatal("Absorb modified its receiver")
				}
			})
		}
	}
	if flips == 0 {
		t.Fatal("no delta ever flipped a property — the sweep is not exercising Absorb")
	}
}

// TestAbsorbPropagatesSourceError checks a source failing mid-stream
// yields no properties rather than a half-absorbed copy, and leaves the
// receiver alone.
func TestAbsorbPropagatesSourceError(t *testing.T) {
	lat, set := synthSet(t, rand.New(rand.NewSource(3)), []int{2}, 10, 4, 0.3, 0.3)
	p, err := MeasureProps(lat, &match.Set{Lattice: lat, Dicts: set.Dicts})
	if err != nil {
		t.Fatal(err)
	}
	before := &MeasuredProps{dis: cloneRows(p.dis), cov: cloneRows(p.cov)}
	src := &failingSource{set: set, after: 5}
	if got, err := p.Absorb(src); !errors.Is(err, errSourceBoom) || got != nil {
		t.Fatalf("Absorb over a failing source = %v, %v", got, err)
	}
	if !reflect.DeepEqual(p, before) {
		t.Fatal("a failed Absorb modified its receiver")
	}
	if _, err := MeasureProps(lat, src); !errors.Is(err, errSourceBoom) {
		t.Fatalf("MeasureProps over a failing source: %v", err)
	}
}

// mixedLadderLattice has one axis of every ladder kind: $n climbs
// rigid → PC-AD → SP → LND, $x rigid → PC-AD with no deletion, and $y
// rigid → LND.
func mixedLadderLattice(t testing.TB) *lattice.Lattice {
	t.Helper()
	q := &pattern.CubeQuery{
		FactVar:  "$f",
		FactPath: pattern.MustParsePath("//f"),
		Agg:      pattern.Count,
		Axes: []pattern.AxisSpec{
			{Var: "$n", Path: pattern.MustParsePath("/author/name"), Relax: pattern.RelaxSet(0).With(pattern.LND).With(pattern.SP).With(pattern.PCAD)},
			{Var: "$x", Path: pattern.MustParsePath("/a/b"), Relax: pattern.RelaxSet(0).With(pattern.PCAD)},
			{Var: "$y", Path: pattern.MustParsePath("/year"), Relax: pattern.RelaxSet(0).With(pattern.LND)},
		},
	}
	lat, err := lattice.New(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(lat.Dims()); got != "[4 2 2]" {
		t.Fatalf("ladder lengths %s, want [4 2 2]", got)
	}
	return lat
}

// Per-axis properties over mixedLadderLattice's live states ($n: rigid,
// PC-AD, SP; $x: rigid, PC-AD; $y: rigid). Under propsA the edges into
// $n:PC-AD, $n:SP and $y:LND are safe; under propsB only $n:PC-AD is.
var (
	propsA = &MeasuredProps{
		cov: [][]bool{{true, true, false}, {true, true}, {true}},
		dis: [][]bool{{false, true, true}, {true, false}, {true}},
	}
	propsB = &MeasuredProps{
		cov: [][]bool{{true, true, true}, {false, true}, {false}},
		dis: [][]bool{{true, true, false}, {true, true}, {true}},
	}
)

// TestEdgeSafe pins the §3.2/§3.7 rule edge by edge: a ladder state step
// needs coverage at the finer state and disjointness at the coarser one;
// an LND step needs both at the finer state. The other axes' states do
// not matter.
func TestEdgeSafe(t *testing.T) {
	lat := mixedLadderLattice(t)
	cases := []struct {
		props Props
		p     lattice.Point
		axis  int
		want  bool
		why   string
	}{
		{propsA, lattice.Point{1, 0, 0}, 0, true, "state step: covered at rigid, disjoint at PC-AD (rigid's non-disjointness is irrelevant)"},
		{propsA, lattice.Point{2, 1, 1}, 0, true, "state step: covered at PC-AD, disjoint at SP"},
		{propsA, lattice.Point{3, 0, 0}, 0, false, "LND step: not covered at SP"},
		{propsA, lattice.Point{0, 1, 0}, 1, false, "state step without LND: not disjoint at PC-AD (rigid's disjointness is irrelevant)"},
		{propsA, lattice.Point{3, 1, 1}, 2, true, "LND step: covered and disjoint at rigid"},
		{propsB, lattice.Point{1, 1, 1}, 0, true, "state step: covered at rigid, disjoint at PC-AD"},
		{propsB, lattice.Point{2, 0, 0}, 0, false, "state step: not disjoint at SP"},
		{propsB, lattice.Point{3, 0, 1}, 0, false, "LND step: covered but not disjoint at SP"},
		{propsB, lattice.Point{0, 1, 0}, 1, false, "state step without LND: not covered at rigid"},
		{propsB, lattice.Point{0, 0, 1}, 2, false, "LND step: disjoint but not covered at rigid"},
		{AssumeAllProps{}, lattice.Point{3, 1, 1}, 0, true, "everything certified"},
		{PessimisticProps{}, lattice.Point{1, 0, 0}, 0, false, "nothing certified"},
	}
	for _, c := range cases {
		if got := EdgeSafe(lat, c.props, c.p, c.axis); got != c.want {
			t.Errorf("EdgeSafe(%s, axis %d) = %v, want %v: %s", lat.Label(c.p), c.axis, got, c.want, c.why)
		}
	}
}

// TestPathSafe pins whole relaxation paths over mixedLadderLattice.
func TestPathSafe(t *testing.T) {
	lat := mixedLadderLattice(t)
	cases := []struct {
		props    Props
		from, to lattice.Point
		want     bool
	}{
		{propsA, lattice.Point{0, 0, 0}, lattice.Point{2, 0, 1}, true},
		{propsA, lattice.Point{0, 0, 0}, lattice.Point{3, 0, 0}, false},
		{propsA, lattice.Point{2, 0, 0}, lattice.Point{3, 0, 0}, false},
		{propsA, lattice.Point{1, 0, 0}, lattice.Point{1, 1, 0}, false},
		{propsA, lattice.Point{1, 1, 0}, lattice.Point{2, 1, 1}, true},
		{propsA, lattice.Point{0, 0, 0}, lattice.Point{0, 0, 0}, true},
		{propsA, lattice.Point{1, 0, 0}, lattice.Point{0, 0, 0}, false},
		{propsA, lattice.Point{1, 0, 1}, lattice.Point{2, 1, 0}, false},
		{propsB, lattice.Point{0, 1, 0}, lattice.Point{1, 1, 0}, true},
		{propsB, lattice.Point{0, 0, 0}, lattice.Point{2, 0, 0}, false},
		{nil, lattice.Point{2, 1, 1}, lattice.Point{2, 1, 1}, true},
		{nil, lattice.Point{0, 0, 0}, lattice.Point{1, 0, 0}, false},
	}
	for _, c := range cases {
		if got := PathSafe(lat, c.props, c.from, c.to); got != c.want {
			t.Errorf("PathSafe(%s → %s) = %v, want %v", lat.Label(c.from), lat.Label(c.to), got, c.want)
		}
	}
}

// safeReach lists the points reachable from `from` over single safe
// edges, walked one relaxation step at a time (nil props: none but
// `from` itself).
func safeReach(lat *lattice.Lattice, props Props, from lattice.Point) map[uint32]bool {
	seen := map[uint32]bool{}
	var walk func(q lattice.Point)
	walk = func(q lattice.Point) {
		if seen[lat.ID(q)] {
			return
		}
		seen[lat.ID(q)] = true
		for a := range q {
			if int(q[a])+1 >= lat.Dims()[a] {
				continue
			}
			c := q.Clone()
			c[a]++
			if props != nil && EdgeSafe(lat, props, c, a) {
				walk(c)
			}
		}
	}
	walk(from)
	return seen
}

// randomProps draws per-axis properties for lat's live states.
func randomProps(lat *lattice.Lattice, rng *rand.Rand) *MeasuredProps {
	m := &MeasuredProps{}
	for a := 0; a < lat.NumAxes(); a++ {
		live := lat.Ladders[a].MostRelaxedLive() + 1
		dis, cov := make([]bool, live), make([]bool, live)
		for s := range dis {
			dis[s], cov[s] = rng.Intn(3) > 0, rng.Intn(3) > 0
		}
		m.dis, m.cov = append(m.dis, dis), append(m.cov, cov)
	}
	return m
}

// TestPathSafeEqualsSafeReachability checks, for every ordered pair of
// points, that PathSafe's one check per (axis, state) step agrees with a
// walk over single safe edges — under nil, pessimistic, all-safe,
// hand-set, random per-axis and measured properties, on lattices mixing
// LND, SP and PC-AD ladders. It also checks that TDCUST's parent choice
// only takes edges EdgeSafe accepts, and takes one whenever a computed
// parent offers it.
func TestPathSafeEqualsSafeReachability(t *testing.T) {
	type setup struct {
		name  string
		lat   *lattice.Lattice
		props Props
	}
	mixed := mixedLadderLattice(t)
	setups := []setup{
		{"mixed/nil", mixed, nil},
		{"mixed/pessimistic", mixed, PessimisticProps{}},
		{"mixed/all", mixed, AssumeAllProps{}},
		{"mixed/A", mixed, propsA},
		{"mixed/B", mixed, propsB},
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		setups = append(setups, setup{fmt.Sprintf("mixed/random%d", seed), mixed, randomProps(mixed, rng)})
		shape := [][]int{{3, 1, 2}, {2, 3}, {1, 1, 1}}[seed%3]
		lat, set := synthSet(t, rng, shape, 60, 5, 0.05*float64(seed%3), 0.1*float64(seed%4))
		measured, err := MeasureProps(lat, set)
		if err != nil {
			t.Fatal(err)
		}
		setups = append(setups,
			setup{fmt.Sprintf("synth%d/measured", seed), lat, measured},
			setup{fmt.Sprintf("synth%d/random", seed), lat, randomProps(lat, rng)})
	}
	safePairs := 0
	for _, su := range setups {
		lat := su.lat
		for _, from := range lat.Points() {
			reach := safeReach(lat, su.props, from)
			for _, to := range lat.Points() {
				if got, want := PathSafe(lat, su.props, from, to), reach[lat.ID(to)]; got != want {
					t.Errorf("%s: PathSafe(%s → %s) = %v, safe-edge reachability says %v", su.name, lat.Label(from), lat.Label(to), got, want)
				} else if got && !slices.Equal(from, to) {
					safePairs++
				}
			}
		}
		if su.props == nil {
			continue
		}
		in := &Input{Lattice: lat, Props: su.props}
		store := newCellStore(in)
		for _, p := range lat.Points() {
			store.cells[lat.ID(p)] = nil
		}
		for _, p := range lat.Points() {
			e := TD{Mode: TDModeCust}.chooseSafeParent(in, store, p)
			if e == nil {
				for a := range p {
					if p[a] > 0 && EdgeSafe(lat, su.props, p, a) {
						t.Errorf("%s: %s has a safe computed parent over axis %d but TDCUST computes it from base", su.name, lat.Label(p), a)
					}
				}
				continue
			}
			want := p.Clone()
			want[e.axis]--
			if !slices.Equal(e.parent, want) || e.drop != lat.Deleted(p, e.axis) || !EdgeSafe(lat, su.props, p, e.axis) {
				t.Errorf("%s: TDCUST derives %s from %s over axis %d (drop %v), which EdgeSafe does not accept",
					su.name, lat.Label(p), lat.Label(e.parent), e.axis, e.drop)
			}
		}
	}
	if safePairs == 0 {
		t.Fatal("no non-trivial safe path anywhere: the sweep proves nothing")
	}
}
