package serve

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"x3/internal/cellfile"
	"x3/internal/cube"
	"x3/internal/obs"
)

// The space-budget differential suite: a store built under a 50% byte
// budget materializes a strict subset of the lattice, yet every cuboid
// answered through the planner — direct reads, safe roll-ups, base
// fallbacks, and (in ladder mode) merges across delta generations — must
// stay byte-equal to the oracle. The budget changes what is stored, never
// what is answered.

// fullStoreBytes builds an unbudgeted store and returns its encoded data
// size, the honest denominator for a fractional budget.
func fullStoreBytes(t *testing.T, ds diffServeDataset, seed int64) int64 {
	t.Helper()
	lat, set := ds.build(t, seed)
	s, err := Build(filepath.Join(t.TempDir(), "full.x3cf"), lat, set, Options{BlockCells: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	return s.rdr.DataBytes()
}

func TestDifferentialSpaceBudget(t *testing.T) {
	const seeds = 5
	// Each dataset runs at the acceptance point (half the full store) and
	// under hard pressure (an eighth): tight budgets force the greedy
	// model to drop cuboids whose kept safe ancestors then answer them by
	// roll-up, so the sweep exercises every serving path.
	plans := map[PlanKind]int{}
	for _, ds := range diffServeDatasets() {
		for _, div := range []int64{2, 8} {
			t.Run(fmt.Sprintf("%s_div%d", ds.name, div), func(t *testing.T) {
				for seed := int64(1); seed <= seeds; seed++ {
					t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
						budget := fullStoreBytes(t, ds, seed) / div
						lat, set := ds.build(t, seed)
						reg := obs.New()
						s, err := Build(filepath.Join(t.TempDir(), "cube.x3cf"), lat, set,
							Options{Registry: reg, SpaceBudget: budget, BlockCells: 7})
						if err != nil {
							t.Fatal(err)
						}
						defer s.Close()

						// A fractional budget cannot hold the whole lattice;
						// the cost model must have dropped something and
						// stayed at or under budget (sizes are exact at build
						// time: the selection prices cuboids with the v4
						// encoder itself).
						if got := len(s.Materialized()); got == lat.Size() {
							t.Fatalf("1/%d budget materialized all %d cuboids", div, got)
						} else if got == 0 {
							t.Fatalf("1/%d budget materialized nothing", div)
						}
						decisions := s.Decisions()
						if len(decisions) != lat.Size() {
							t.Fatalf("store holds %d decisions, want one per lattice point (%d)", len(decisions), lat.Size())
						}
						var spent int64
						for _, d := range decisions {
							if d.Materialize {
								spent += d.Bytes
							} else if d.Reason != "over-budget" && d.Reason != "no-benefit" {
								t.Fatalf("unpicked decision %+v has reason %q", d, d.Reason)
							}
						}
						if spent > budget {
							t.Fatalf("decisions spend %d bytes of a %d budget", spent, budget)
						}

						oracle, err := cube.RunOracle(lat, set, set.Dicts)
						if err != nil {
							t.Fatal(err)
						}
						for _, p := range lat.Points() {
							plans[assertCuboidMatchesOracle(t, s, oracle, p)]++
							assertPinnedMatchOracle(t, s, oracle, p)
						}
					})
				}
			})
		}
	}
	t.Logf("budgeted plan mix over %d seeds x 2 budgets: %d direct, %d rollup, %d base",
		seeds, plans[PlanDirect], plans[PlanRollup], plans[PlanBase])
	if plans[PlanDirect] == 0 || plans[PlanRollup] == 0 || plans[PlanBase] == 0 {
		t.Errorf("plan mix degenerate: %v — the budgeted sweep must exercise all three serving paths", plans)
	}
}

// TestDifferentialSpaceBudgetLadder drives the full adaptive loop: a
// budgeted ladder store serves byte-equal answers across memtable, delta
// generations, the budget-re-selecting compaction (fed by live query
// counts), and recovery from the manifest + WAL.
func TestDifferentialSpaceBudgetLadder(t *testing.T) {
	const batches = 3
	plans := map[PlanKind]int{}
	for _, ds := range ladderDatasets() {
		t.Run(ds.name, func(t *testing.T) {
			seed := int64(1)
			ctx := context.Background()
			lat := ds.lat(t)
			oracle := newLadderOracle(t, lat)
			baseDoc := ds.doc(seed)
			baseSet := oracle.add(t, baseDoc)

			// Denominator: the unbudgeted ladder base generation.
			full, err := BuildDir(t.TempDir(), lat, baseSet, Options{BlockCells: 16, FlushCells: -1, CompactAfter: -1})
			if err != nil {
				t.Fatal(err)
			}
			budget := full.rdr.DataBytes() / 2
			full.Close()

			dir := t.TempDir()
			reg := obs.New()
			opt := Options{Registry: reg, SpaceBudget: budget, BlockCells: 16, FlushCells: -1, CompactAfter: -1}
			s, err := BuildDir(dir, lat, baseSet, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(s.keepSorted); got == lat.Size() || got == 0 {
				t.Fatalf("50%% ladder budget kept %d of %d cuboids", got, lat.Size())
			}
			sweepLadder(t, s, oracle.result(t), plans)

			for k := 1; k <= batches; k++ {
				doc := ds.doc(seed*1000 + int64(k))
				oracle.add(t, doc)
				if _, err := s.Append(ctx, docBytes(t, doc)); err != nil {
					t.Fatalf("append %d: %v", k, err)
				}
				res := oracle.result(t)
				sweepLadder(t, s, res, plans) // memtable serving
				if err := s.Flush(ctx); err != nil {
					t.Fatalf("flush %d: %v", k, err)
				}
				sweepLadder(t, s, res, plans) // delta-generation serving
			}

			// Compaction re-runs the selection with the live query counts
			// (the sweeps above populated them); the new keep set can only
			// shrink — dropped cells cannot come back without a rebuild.
			before := append([]uint32(nil), s.keepSorted...)
			beforeSet := make(map[uint32]bool, len(before))
			for _, pid := range before {
				beforeSet[pid] = true
			}
			if err := s.Compact(ctx); err != nil {
				t.Fatal(err)
			}
			for _, pid := range s.keepSorted {
				if !beforeSet[pid] {
					t.Fatalf("compaction grew the keep set: %d not in %v", pid, before)
				}
			}
			if len(s.Decisions()) == 0 {
				t.Fatal("budgeted compaction recorded no decisions")
			}
			final := oracle.result(t)
			sweepLadder(t, s, final, plans)

			// The report covers the whole lattice and saw the sweep's queries.
			report := s.CuboidReport()
			if len(report) != lat.Size() {
				t.Fatalf("CuboidReport has %d rows, want %d", len(report), lat.Size())
			}
			var queried int64
			for _, cs := range report {
				queried += cs.Queries
				if cs.Materialized && cs.Cells == 0 {
					t.Fatalf("materialized cuboid %s reports zero cells", cs.Label)
				}
			}
			if queried == 0 {
				t.Fatal("CuboidReport saw no queries after the sweeps")
			}

			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// Recovery under the same budget: the shrunken keep set survives
			// the manifest round trip and answers stay byte-equal.
			recBase := newLadderOracle(t, lat).add(t, baseDoc)
			s2, err := OpenDir(dir, lat, recBase, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			sweepLadder(t, s2, final, plans)
		})
	}
	t.Logf("budgeted ladder plan mix: %d direct, %d rollup, %d base",
		plans[PlanDirect], plans[PlanRollup], plans[PlanBase])
	if plans[PlanDirect] == 0 || plans[PlanRollup] == 0 || plans[PlanBase] == 0 {
		t.Errorf("plan mix degenerate: %v — the budgeted ladder sweep must exercise every serving path", plans)
	}
}

// TestBudgetGenerationsHoldOnlyKeep pins the manifest's invariant under a
// space budget: after every flush and every compaction, each generation
// file holds only cuboids the manifest's Keep names. The dangerous moment
// is a compaction that shrinks the keep set while the memtable still
// holds cells of the dropped cuboids: neither the next flush nor a later
// compaction that keeps the set as it is may write them back.
func TestBudgetGenerationsHoldOnlyKeep(t *testing.T) {
	for _, ds := range ladderDatasets() {
		t.Run(ds.name, func(t *testing.T) {
			ctx := context.Background()
			lat := ds.lat(t)
			oracle := newLadderOracle(t, lat)
			baseSet := oracle.add(t, ds.doc(1))
			full, err := BuildDir(t.TempDir(), lat, baseSet, Options{BlockCells: 16, FlushCells: -1, CompactAfter: -1})
			if err != nil {
				t.Fatal(err)
			}
			budget := full.rdr.DataBytes() / 2
			full.Close()
			s, err := BuildDir(t.TempDir(), lat, baseSet, Options{SpaceBudget: budget, BlockCells: 16, FlushCells: -1, CompactAfter: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			check := func(stage string) {
				t.Helper()
				keep := make(map[uint32]bool, len(s.man.Keep))
				for _, pid := range s.man.Keep {
					keep[pid] = true
				}
				for i, g := range append([]*cellfile.IndexedReader{s.rdr}, s.deltas...) {
					for _, pid := range g.Points() {
						if !keep[pid] {
							t.Fatalf("%s: generation %d holds cuboid %d, which Keep %v does not name", stage, i, pid, s.man.Keep)
						}
					}
				}
			}
			appendDoc := func(seed int64) {
				t.Helper()
				doc := ds.doc(seed)
				oracle.add(t, doc)
				if _, err := s.Append(ctx, docBytes(t, doc)); err != nil {
					t.Fatal(err)
				}
			}
			plans := map[PlanKind]int{}
			shrank := false
			for k := int64(1); k <= 3; k++ {
				appendDoc(100 + k)
				if err := s.Flush(ctx); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("flush %d", k))
				appendDoc(200 + k) // the memtable holds cells through the compaction
				sweepLadder(t, s, oracle.result(t), plans)
				before := len(s.man.Keep)
				if err := s.Compact(ctx); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("compaction %d", k))
				shrank = shrank || len(s.man.Keep) < before
			}
			if err := s.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			check("last flush")
			if err := s.Compact(ctx); err != nil {
				t.Fatal(err)
			}
			check("last compaction")
			sweepLadder(t, s, oracle.result(t), plans)
			if !shrank {
				t.Fatal("no compaction shrank the keep set with cells in the memtable: the test does not reach the leak")
			}
		})
	}
}
