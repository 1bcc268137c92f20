package serve

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"x3/internal/cube"
	"x3/internal/dataset"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/obs"
	"x3/internal/xmltree"
)

// The delta-ladder differential suite (this PR's acceptance suite): for
// every seed and dataset family, a store is built over a base document
// and grown through K append batches, and after EVERY intermediate state
// — append absorbed into the memtable, memtable flushed as a delta
// generation, generations compacted, store closed and recovered from
// manifest + WAL — every cuboid answered through the base+delta planner
// must be byte-equal to the single-set oracle over all facts so far.

// ladderDataset is one workload family of the ladder sweep.
type ladderDataset struct {
	name  string
	views int
	lat   func(tb testing.TB) *lattice.Lattice
	doc   func(seed int64) *xmltree.Document
}

func ladderDatasets() []ladderDataset {
	return []ladderDataset{
		{
			name:  "treebank",
			views: 3,
			lat: func(tb testing.TB) *lattice.Lattice {
				lat, err := lattice.New(dataset.TreebankQuery(mixedAxes()))
				if err != nil {
					tb.Fatal(err)
				}
				return lat
			},
			doc: func(seed int64) *xmltree.Document {
				return dataset.Treebank(dataset.TreebankConfig{Seed: seed, Facts: 40, Axes: mixedAxes()})
			},
		},
		{
			name:  "dblp",
			views: 5,
			lat: func(tb testing.TB) *lattice.Lattice {
				lat, err := lattice.New(dataset.DBLPQuery())
				if err != nil {
					tb.Fatal(err)
				}
				return lat
			},
			doc: func(seed int64) *xmltree.Document {
				cfg := dataset.DefaultDBLPConfig(30, seed)
				cfg.Journals = 6
				cfg.Authors = 25
				return dataset.DBLP(cfg)
			},
		},
		{
			// Clean axes at build; every appended document repeats axis 2,
			// so the first append flips its disjointness and the roll-ups
			// that relied on it must turn into base recomputes.
			name:  "flip",
			views: 1,
			lat: func(tb testing.TB) *lattice.Lattice {
				lat, err := lattice.New(dataset.TreebankQuery(cleanAxes(3)))
				if err != nil {
					tb.Fatal(err)
				}
				return lat
			},
			doc: func(seed int64) *xmltree.Document {
				axes := cleanAxes(3)
				if seed >= 1000 {
					axes[2].PRepeat = 0.5
				}
				return dataset.Treebank(dataset.TreebankConfig{Seed: seed, Facts: 40, Axes: axes})
			},
		},
	}
}

// docBytes serializes a document the way /append receives it.
func docBytes(tb testing.TB, doc *xmltree.Document) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := doc.Write(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// ladderOracle accumulates the documents the store has absorbed and
// recomputes the reference cube over all of them. Documents are
// evaluated in the same order as the store's append path, so the
// dictionaries assign identical ValueIDs and answers compare byte-equal.
type ladderOracle struct {
	lat   *lattice.Lattice
	dicts []*match.Dict
	facts []*match.Fact
}

func newLadderOracle(tb testing.TB, lat *lattice.Lattice) *ladderOracle {
	dicts := make([]*match.Dict, lat.NumAxes())
	for i := range dicts {
		dicts[i] = match.NewDict()
	}
	return &ladderOracle{lat: lat, dicts: dicts}
}

func (o *ladderOracle) add(tb testing.TB, doc *xmltree.Document) *match.Set {
	tb.Helper()
	set, err := match.EvaluateWith(doc, o.lat, o.dicts)
	if err != nil {
		tb.Fatal(err)
	}
	o.facts = append(o.facts, set.Facts...)
	return set
}

func (o *ladderOracle) result(tb testing.TB) *cube.Result {
	tb.Helper()
	set := &match.Set{Lattice: o.lat, Dicts: o.dicts, Facts: o.facts}
	res, err := cube.RunOracle(o.lat, set, o.dicts)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// sweepLadder asserts that the store plans with exactly the properties
// its facts show, then every cuboid of the lattice, whole and under its
// pinned queries, against the oracle, and adds the whole answers' plans
// to plans.
func sweepLadder(tb testing.TB, s *Store, oracle *cube.Result, plans map[PlanKind]int) {
	tb.Helper()
	s.mu.RLock()
	props := s.props
	want, err := cube.MeasureProps(s.lat, s.base)
	s.mu.RUnlock()
	if err != nil {
		tb.Fatal(err)
	}
	if !reflect.DeepEqual(props, want) {
		tb.Fatalf("store properties %+v, its facts measure %+v", *props, *want)
	}
	for _, p := range s.lat.Points() {
		plans[assertCuboidMatchesOracle(tb, s, oracle, p)]++
		assertPinnedMatchOracle(tb, s, oracle, p)
	}
}

func TestDifferentialDeltaLadder(t *testing.T) {
	const seeds = 10
	const batches = 3
	for _, ds := range ladderDatasets() {
		t.Run(ds.name, func(t *testing.T) {
			plans := map[PlanKind]int{}
			for seed := int64(1); seed <= seeds; seed++ {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					ctx := context.Background()
					lat := ds.lat(t)
					oracle := newLadderOracle(t, lat)
					baseDoc := ds.doc(seed)
					baseSet := oracle.add(t, baseDoc)

					dir := t.TempDir()
					reg := obs.New()
					opt := Options{Registry: reg, Views: ds.views, BlockCells: 7, FlushCells: -1, CompactAfter: -1}
					s, err := BuildDir(dir, lat, baseSet, opt)
					if err != nil {
						t.Fatal(err)
					}
					sweepLadder(t, s, oracle.result(t), plans)

					for k := 1; k <= batches; k++ {
						doc := ds.doc(seed*1000 + int64(k))
						oracle.add(t, doc)
						if _, err := s.Append(ctx, docBytes(t, doc)); err != nil {
							t.Fatalf("append %d: %v", k, err)
						}
						res := oracle.result(t)
						// Memtable serving: the appended facts are visible
						// before any flush.
						sweepLadder(t, s, res, plans)
						if err := s.Flush(ctx); err != nil {
							t.Fatalf("flush %d: %v", k, err)
						}
						if d, m := s.Generations(); d != k || m != 0 {
							t.Fatalf("after flush %d: %d deltas, %d memtable cells", k, d, m)
						}
						// Delta-generation serving: same answers from disk.
						sweepLadder(t, s, res, plans)
					}

					if err := s.Compact(ctx); err != nil {
						t.Fatal(err)
					}
					if d, m := s.Generations(); d != 0 || m != 0 {
						t.Fatalf("after compact: %d deltas, %d memtable cells", d, m)
					}
					final := oracle.result(t)
					sweepLadder(t, s, final, plans)

					// One more append left unflushed, then recovery: the
					// reopened store must rebuild the memtable from the WAL.
					lastDoc := ds.doc(seed*1000 + batches + 1)
					oracle.add(t, lastDoc)
					if _, err := s.Append(ctx, docBytes(t, lastDoc)); err != nil {
						t.Fatal(err)
					}
					res := oracle.result(t)
					sweepLadder(t, s, res, plans)
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}

					// Recovery replays the base document's evaluation the
					// same way BuildDir received it.
					recDicts := make([]*match.Dict, lat.NumAxes())
					for i := range recDicts {
						recDicts[i] = match.NewDict()
					}
					recBase, err := match.EvaluateWith(baseDoc, lat, recDicts)
					if err != nil {
						t.Fatal(err)
					}
					reopen := func() *Store {
						s, err := OpenDir(dir, lat, recBase, opt)
						if err != nil {
							t.Fatal(err)
						}
						return s
					}
					s2 := reopen()
					if got, want := s2.NumFacts(), len(oracle.facts); got != want {
						t.Fatalf("recovered store has %d facts, oracle %d", got, want)
					}
					sweepLadder(t, s2, res, plans)
					assertIdempotentRecovery(t, s2, reopen)
				})
			}
			t.Logf("%s ladder plan mix: %d direct, %d rollup, %d base",
				ds.name, plans[PlanDirect], plans[PlanRollup], plans[PlanBase])
			if plans[PlanDirect] == 0 || plans[PlanRollup] == 0 || plans[PlanBase] == 0 {
				t.Errorf("plan mix degenerate: %v — the ladder sweep no longer covers all three serving paths", plans)
			}
		})
	}
}
