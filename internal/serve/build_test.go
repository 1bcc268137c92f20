package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"x3/internal/agg"
	"x3/internal/cellfile"
	"x3/internal/costmodel"
	"x3/internal/cube"
	"x3/internal/dataset"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/pattern"
)

// dblpWorkload evaluates the §4.5 DBLP query over a generated corpus of
// articles articles.
func dblpWorkload(tb testing.TB, seed int64, articles int) (*lattice.Lattice, *match.Set) {
	tb.Helper()
	doc := dataset.DBLP(dataset.DefaultDBLPConfig(articles, seed))
	lat, err := lattice.New(dataset.DBLPQuery())
	if err != nil {
		tb.Fatal(err)
	}
	dicts := make([]*match.Dict, lat.NumAxes())
	for i := range dicts {
		dicts[i] = match.NewDict()
	}
	set, err := match.EvaluateWith(doc, lat, dicts)
	if err != nil {
		tb.Fatal(err)
	}
	return lat, set
}

// resultRouteBase writes, at path, the base generation the way a build
// wrote it before builds streamed into a sorted sink: COUNTER into a
// cube.Result, the cuboid selection fed from its Keys/State walk, and the
// kept cuboids written in Keys order. Under a count budget the unit-priced
// selection must keep exactly wantViews. It returns the cost-model
// decisions (nil without a space budget).
func resultRouteBase(tb testing.TB, path string, lat *lattice.Lattice, set *match.Set, opt Options, wantViews []uint32) []costmodel.Decision {
	tb.Helper()
	props, err := cube.MeasureProps(lat, set)
	if err != nil {
		tb.Fatal(err)
	}
	alg, err := cube.ByName("COUNTER")
	if err != nil {
		tb.Fatal(err)
	}
	res := cube.NewResult(lat, set.Dicts)
	if _, err := alg.Run(&cube.Input{Lattice: lat, Source: set, Dicts: set.Dicts, Props: props}, res); err != nil {
		tb.Fatal(err)
	}
	rows := max(int64(set.NumFacts()), 1)
	keep := map[uint32]bool{}
	var decisions []costmodel.Decision
	switch {
	case opt.SpaceBudget > 0:
		var cands []costmodel.Candidate
		for _, p := range lat.Points() {
			w := cellfile.NewWriter(io.Discard, opt.BlockCells)
			for _, key := range res.Keys(p) {
				st, _ := res.State(p, key)
				if err := w.Cell(lat.ID(p), key, st); err != nil {
					tb.Fatal(err)
				}
			}
			if err := w.Finish(); err != nil {
				tb.Fatal(err)
			}
			cands = append(cands, costmodel.Candidate{PID: lat.ID(p), Cells: w.Cells(), Bytes: w.DataBytes()})
		}
		var pids []uint32
		pids, decisions, err = costmodel.Select(lat, props, cands, costmodel.Config{Budget: opt.SpaceBudget, BaseCost: rows})
		if err != nil {
			tb.Fatal(err)
		}
		for _, pid := range pids {
			keep[pid] = true
		}
	case opt.Views > 0 && opt.Views < lat.Size():
		var cands []costmodel.Candidate
		for _, p := range lat.Points() {
			cands = append(cands, costmodel.Candidate{PID: lat.ID(p), Cells: int64(res.CuboidSize(p)), Bytes: 1})
		}
		pids, _, err := costmodel.Select(lat, props, cands, costmodel.Config{Budget: int64(opt.Views), BaseCost: rows})
		if err != nil {
			tb.Fatal(err)
		}
		if !slices.Equal(pids, wantViews) {
			tb.Fatalf("unit-priced selection keeps %v, want %v", pids, wantViews)
		}
		for _, pid := range pids {
			keep[pid] = true
		}
	default:
		for _, p := range lat.Points() {
			keep[lat.ID(p)] = true
		}
	}
	if _, err := cellfile.WriteFile(path, opt.BlockCells, nil, func(w *cellfile.Writer) error {
		for _, p := range lat.Points() {
			if !keep[lat.ID(p)] {
				continue
			}
			for _, key := range res.Keys(p) {
				st, _ := res.State(p, key)
				if err := w.Cell(lat.ID(p), key, st); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	return decisions
}

// TestBuildBaseMatchesResultRoute pins the build route: the base
// generation Build and BuildDir publish from the sorted sink is
// byte-equal to the file the cube.Result route writes, and the cuboid
// selection makes the same decisions, under every selection knob. The
// Views: 5 picks are golden: they are the cuboids the former top-k
// selector (HRU on cell counts) kept, which the unit-priced cost model
// must keep too.
func TestBuildBaseMatchesResultRoute(t *testing.T) {
	workloads := []struct {
		name      string
		load      func(testing.TB) (*lattice.Lattice, *match.Set)
		wantViews []uint32
	}{
		{"treebank", func(tb testing.TB) (*lattice.Lattice, *match.Set) {
			lat, set, _ := treebankWorkload(tb, 3, 2000, mixedAxes())
			return lat, set
		}, []uint32{0, 1, 2, 3, 4}},
		{"dblp", func(tb testing.TB) (*lattice.Lattice, *match.Set) { return dblpWorkload(tb, 1, 2000) }, []uint32{8, 9, 10, 12, 13}},
	}
	opts := []Options{{}, {BlockCells: 7, Views: 5}, {SpaceBudget: 40000}}
	for _, wl := range workloads {
		lat, set := wl.load(t)
		for _, opt := range opts {
			t.Run(fmt.Sprintf("%s/blocks%d_views%d_budget%d", wl.name, opt.BlockCells, opt.Views, opt.SpaceBudget), func(t *testing.T) {
				dir := t.TempDir()
				ref := filepath.Join(dir, "ref.x3ci")
				wantDecisions := resultRouteBase(t, ref, lat, set, opt, wl.wantViews)
				want, err := os.ReadFile(ref)
				if err != nil {
					t.Fatal(err)
				}
				single, err := Build(filepath.Join(dir, "single.x3ci"), lat, set, opt)
				if err != nil {
					t.Fatal(err)
				}
				defer single.Close()
				ladder, err := BuildDir(filepath.Join(dir, "ladder"), lat, set, opt)
				if err != nil {
					t.Fatal(err)
				}
				defer ladder.Close()
				for _, s := range []*Store{single, ladder} {
					got, err := os.ReadFile(s.Path())
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("%s: %d bytes differ from the cube.Result route's %d", s.Path(), len(got), len(want))
					}
					if d := s.Decisions(); !reflect.DeepEqual(d, wantDecisions) {
						t.Errorf("%s: decisions %+v, want %+v", s.Path(), d, wantDecisions)
					}
					if opt.Views > 0 {
						var kept []uint32
						for _, m := range s.Materialized() {
							kept = append(kept, lat.ID(m.Point))
						}
						if !slices.Equal(kept, wl.wantViews) {
							t.Errorf("%s: keeps %v, want %v", s.Path(), kept, wl.wantViews)
						}
					}
				}
				t.Logf("%d of %d cuboids kept, %d bytes", len(single.Materialized()), lat.Size(), len(want))
			})
		}
	}
}

// TestBuildRejectsDuplicateCell feeds a cell twice into the build's emit
// path: the publish fails naming the cuboid and key, and leaves neither
// the generation file nor its temp file behind.
func TestBuildRejectsDuplicateCell(t *testing.T) {
	lat, set, _ := treebankWorkload(t, 1, 20, mixedAxes())
	dir := t.TempDir()
	path := filepath.Join(dir, "cube.x3ci")
	s := newStore(path, lat, set, Options{})
	sink := cellfile.CreateIndexed(path)
	defer sink.Abort()
	top := lat.Points()[0]
	pid := lat.ID(top)
	key := make([]match.ValueID, len(lat.LiveAxes(top)))
	var st agg.State
	st.Add(1)
	for range 2 {
		if err := sink.Cell(pid, key, st); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := s.publish(path, emitBase(lat, sink, map[uint32]bool{pid: true}))
	if err == nil {
		t.Fatal("a duplicate cell was published")
	}
	for _, want := range []string{"duplicate", lat.Label(top), fmt.Sprint(key)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("failed build left %d files behind (first %s)", len(ents), ents[0].Name())
	}
}

// inexactMeasures cycles facts through measures whose float sums depend
// on the order they are added in.
func inexactMeasures(set *match.Set) {
	ms := []float64{0.1, 1e16, -1e16, 0.7, 3e-3, -0.2}
	for i, f := range set.Facts {
		f.Measure = ms[i%len(ms)]
	}
}

// foldInArrivalOrder is the reference fold: one accumulator per key,
// into which add folds the i-th pair as the pairs arrive, then the keys
// sorted.
func foldInArrivalOrder(keys [][]match.ValueID, add func(st *agg.State, i int)) []Row {
	acc := map[string]*Row{}
	var rows []*Row
	for i, k := range keys {
		r, ok := acc[fmt.Sprint(k)]
		if !ok {
			r = &Row{Key: k}
			acc[fmt.Sprint(k)] = r
			rows = append(rows, r)
		}
		add(&r.State, i)
	}
	slices.SortFunc(rows, func(a, b *Row) int { return slices.Compare(a.Key, b.Key) })
	out := make([]Row, len(rows))
	for i, r := range rows {
		out[i] = *r
	}
	return out
}

// sameBits reports whether two row lists hold the same keys and
// bit-identical states.
func sameBits(a, b []Row) bool {
	return slices.EqualFunc(a, b, func(x, y Row) bool {
		return slices.Equal(x.Key, y.Key) && x.State.N == y.State.N &&
			math.Float64bits(x.State.Sum) == math.Float64bits(y.State.Sum) &&
			math.Float64bits(x.State.MinV) == math.Float64bits(y.State.MinV) &&
			math.Float64bits(x.State.MaxV) == math.Float64bits(y.State.MaxV)
	})
}

// TestFoldOrderInexactMeasures pins the order answers fold equal keys
// in: over measures whose sums depend on it, every roll-up equals
// folding the source cuboid's cells in stream order, and every base
// recompute equals folding each fact's memberships in fact order — so a
// fold that reorders equal keys (an unstable sort) changes the bits. It
// covers both kinds of roll-up: one whose dropped axes trail the source
// key, where equal keys arrive adjacent, and any other, where they
// arrive interleaved — so a merge of adjacent keys that skips the sort
// must be taken only for the first kind, and must merge only equal keys.
func TestFoldOrderInexactMeasures(t *testing.T) {
	plans := map[string]int{}
	// Property-violating axes: base recomputes.
	lat, set, _ := treebankWorkload(t, 5, 600, mixedAxes())
	foldOrderSweep(t, lat, set, 3, plans)
	// Two clean 30-value axes with only the finest cuboid materialized:
	// roll-ups that drop a leading axis fold 30 interleaved cells per
	// group.
	lnd := pattern.RelaxSet(0).With(pattern.LND)
	lat, set, _ = treebankWorkload(t, 5, 3000, []dataset.AxisConfig{
		{Tag: "w0", Cardinality: 30, Relax: lnd},
		{Tag: "w1", Cardinality: 30, Relax: lnd},
	})
	foldOrderSweep(t, lat, set, 1, plans)
	// Three clean axes, again with only the finest cuboid: dropping the
	// trailing axis rolls two-axis keys up in stream order, 8 adjacent
	// cells per group.
	lat, set, _ = treebankWorkload(t, 5, 3000, []dataset.AxisConfig{
		{Tag: "w0", Cardinality: 8, Relax: lnd},
		{Tag: "w1", Cardinality: 8, Relax: lnd},
		{Tag: "w2", Cardinality: 8, Relax: lnd},
	})
	foldOrderSweep(t, lat, set, 1, plans)
	t.Logf("plan mix: %v", plans)
	if plans["rollup"] == 0 || plans["rollup, trailing"] == 0 || plans["base"] == 0 {
		t.Fatalf("plan mix %v: the test needs both kinds of roll-up and base recomputes", plans)
	}
}

// foldOrderSweep answers every cuboid of a store holding views cuboids,
// over inexact measures, and checks each roll-up and base answer against
// the arrival-order fold, counting plans into plans (a roll-up whose
// dropped axes trail its source's key apart).
func foldOrderSweep(t *testing.T, lat *lattice.Lattice, set *match.Set, views int, plans map[string]int) {
	inexactMeasures(set)
	s, err := Build(filepath.Join(t.TempDir(), "cube.x3ci"), lat, set, Options{Views: views, BlockCells: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for _, p := range lat.Points() {
		ans, err := s.Answer(ctx, Query{Point: p})
		if err != nil {
			t.Fatal(err)
		}
		kind := ans.Plan.String()
		if live := lat.LiveAxes(p); ans.Plan == PlanRollup && slices.Equal(lat.LiveAxes(ans.From)[:len(live)], live) {
			kind += ", trailing"
		}
		plans[kind]++
		var (
			keys     [][]match.ValueID
			states   []agg.State // roll-up: the source cells' states
			measures []float64   // base: the facts' measures
		)
		switch ans.Plan {
		case PlanRollup:
			from, err := s.Answer(ctx, Query{Point: ans.From})
			if err != nil || from.Plan != PlanDirect {
				t.Fatalf("%s: source %s not read directly (%v)", lat.Label(p), lat.Label(ans.From), err)
			}
			fromLive := lat.LiveAxes(ans.From)
			for _, r := range from.Rows {
				var k []match.ValueID
				for _, a := range lat.LiveAxes(p) {
					k = append(k, r.Key[slices.Index(fromLive, a)])
				}
				keys, states = append(keys, k), append(states, r.State)
			}
		case PlanBase:
			for _, f := range set.Facts {
				var rec func(i int, k []match.ValueID)
				rec = func(i int, k []match.ValueID) {
					live := lat.LiveAxes(p)
					if i == len(live) {
						keys, measures = append(keys, slices.Clone(k)), append(measures, f.Measure)
						return
					}
					for _, v := range f.Values(live[i], int(p[live[i]])) {
						rec(i+1, append(k, v))
					}
				}
				rec(0, nil)
			}
		default:
			continue
		}
		want := foldInArrivalOrder(keys, func(st *agg.State, i int) {
			if ans.Plan == PlanBase {
				st.Add(measures[i])
			} else {
				st.Merge(states[i])
			}
		})
		if !sameBits(ans.Rows, want) {
			t.Errorf("%s (plan %s): rows differ from the arrival-order fold", lat.Label(p), ans.Plan)
		}
	}
}
