package serve

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"x3/internal/cube"
	"x3/internal/dataset"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/obs"
)

// The differential serving sweep (the PR's acceptance suite): for every
// seed and dataset family, every cuboid of the lattice is answered
// through the planner of a view-limited store — so answers arrive over
// all three plans (direct reads, safe roll-ups from a materialized
// ancestor, and the unsafe-rollup fallback to base facts on
// property-violating data) — and each answer must be byte-equal to
// recomputing that cuboid from the base facts with the oracle. Each
// cuboid is answered whole and under the pinned queries of
// pinnedQueries, over 7-cell blocks so that runs of matching cells
// straddle block boundaries.

// diffServeDataset is one workload family of the sweep.
type diffServeDataset struct {
	name  string
	views int
	build func(tb testing.TB, seed int64) (*lattice.Lattice, *match.Set)
}

func diffServeDatasets() []diffServeDataset {
	return []diffServeDataset{
		// Treebank with per-axis property violations: axis 0 rolls up
		// safely, axis 1 breaks coverage, axis 2 breaks disjointness —
		// the planner must mix safe roll-ups with base fallbacks.
		{name: "treebank", views: 3, build: func(tb testing.TB, seed int64) (*lattice.Lattice, *match.Set) {
			lat, set, _ := treebankWorkload(tb, seed, 60, mixedAxes())
			return lat, set
		}},
		// DBLP (§4.5): author is repeated and optional, month/year/journal
		// are clean — the paper's own safe/unsafe blend.
		{name: "dblp", views: 5, build: func(tb testing.TB, seed int64) (*lattice.Lattice, *match.Set) {
			cfg := dataset.DefaultDBLPConfig(50, seed)
			cfg.Journals = 6
			cfg.Authors = 25
			doc := dataset.DBLP(cfg)
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
		}},
	}
}

func TestDifferentialServing(t *testing.T) {
	const seeds = 10
	leadingRollups := 0
	for _, ds := range diffServeDatasets() {
		t.Run(ds.name, func(t *testing.T) {
			plans := map[PlanKind]int{}
			for seed := int64(1); seed <= seeds; seed++ {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					lat, set := ds.build(t, seed)
					reg := obs.New()
					s, err := Build(filepath.Join(t.TempDir(), "cube.x3cf"), lat, set,
						Options{Registry: reg, Views: ds.views, BlockCells: 7})
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					oracle, err := cube.RunOracle(lat, set, set.Dicts)
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range lat.Points() {
						plans[assertCuboidMatchesOracle(t, s, oracle, p)]++
					}
					// The indexed store must not degenerate to full-file
					// scans: across a whole-lattice sweep of a
					// view-limited store the reads stay bounded.
					total := s.rdr.NumCells()
					if n := s.rdr.NumBlocks(); n > 1 {
						perQuery := reg.Counter("serve.scan.cells").Value() / int64(lat.Size())
						if perQuery >= total {
							t.Errorf("average query scanned %d of %d cells", perQuery, total)
						}
					}
					for _, p := range lat.Points() {
						leadingRollups += assertPinnedMatchOracle(t, s, oracle, p)
					}
				})
			}
			t.Logf("%s plan mix over %d seeds: %d direct, %d rollup, %d base",
				ds.name, seeds, plans[PlanDirect], plans[PlanRollup], plans[PlanBase])
			// The sweep is only meaningful if it exercised every path.
			if plans[PlanDirect] == 0 || plans[PlanRollup] == 0 || plans[PlanBase] == 0 {
				t.Errorf("plan mix degenerate: %v — the sweep no longer covers all three serving paths", plans)
			}
		})
	}
	if leadingRollups == 0 {
		t.Error("no pinned roll-up read its finer cuboid by a leading pin — the sweep does not reach a roll-up's seek")
	}
}

// TestBuildAndBuildDirAnswerAlike pins the one store shape: a read-only
// Build store and a BuildDir ladder store over the same facts and
// options give identical answers — plan, source cuboid, rows and
// Degraded — on every cuboid, whole and under every pinned leg of the
// differential suites.
func TestBuildAndBuildDirAnswerAlike(t *testing.T) {
	ctx := context.Background()
	for _, ds := range diffServeDatasets() {
		for seed := int64(1); seed <= 3; seed++ {
			lat, set := ds.build(t, seed)
			opt := Options{Views: ds.views, BlockCells: 7}
			file, err := Build(filepath.Join(t.TempDir(), "cube.x3ci"), lat, set, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer file.Close()
			ladder, err := BuildDir(t.TempDir(), lat, set, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer ladder.Close()
			oracle, err := cube.RunOracle(lat, set, set.Dicts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(file.Materialized(), ladder.Materialized()) {
				t.Fatalf("%s seed %d: materialized %v (Build) and %v (BuildDir)", ds.name, seed, file.Materialized(), ladder.Materialized())
			}
			for _, p := range lat.Points() {
				for _, q := range append([]Query{{Point: p}}, pinnedQueries(file, oracle, p)...) {
					a, err := file.Answer(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					b, err := ladder.Answer(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("%s seed %d, %s where %v: Build answers %+v, BuildDir %+v", ds.name, seed, lat.Label(p), q.Where, a, b)
					}
				}
			}
		}
	}
}
