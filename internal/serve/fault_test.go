package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"x3/internal/cellfile"
	"x3/internal/cube"
	"x3/internal/dataset"
	"x3/internal/fault"
	"x3/internal/match"
	"x3/internal/obs"
)

// answerSnapshot answers every cuboid of the lattice and encodes the full
// result byte-exactly (plan excluded — only the data matters).
func answerSnapshot(tb testing.TB, s *Store) map[string]string {
	tb.Helper()
	snap := make(map[string]string, s.lat.Size())
	for _, p := range s.lat.Points() {
		ans, err := s.Answer(context.Background(), Query{Point: p})
		if err != nil {
			tb.Fatalf("%s: %v", s.lat.Label(p), err)
		}
		var enc []byte
		for _, r := range ans.Rows {
			enc = packKey(enc, r.Key)
			var st [32]byte
			r.State.Encode(st[:])
			enc = append(enc, st[:]...)
		}
		snap[s.lat.Label(p)] = string(enc)
	}
	return snap
}

// TestDifferentialFaultServing is the acceptance sweep under injected read
// faults: for every seed and dataset family a view-limited store is built
// and served with deterministic corruption and short reads injected into
// the cell-file read path. Every query must be byte-equal to the oracle or
// fail with an explicit wrapped sentinel — never a silently wrong cell.
//
// The per-family subtests let the indexed path's own retries absorb nearly
// every fault. The "unretried" leg turns retrying off on smaller blocks,
// so faults reach the degraded re-scan of roll-up answers too — it must
// see such an answer, and it must be exact. Its ladder subtests serve
// from three generations plus the memtable, and must see a degraded
// direct answer: the merged read restarted with a faulted generation
// re-read verified.
func TestDifferentialFaultServing(t *testing.T) {
	for _, ds := range diffServeDatasets() {
		t.Run(ds.name, func(t *testing.T) {
			faultServingSweep(t, ds, fault.Config{CorruptEvery: 7, ShortEvery: 9}, 7, 8)
		})
	}
	t.Run("unretried", func(t *testing.T) {
		degradedRollups, degradedLadder := 0, 0
		for _, ds := range diffServeDatasets() {
			t.Run(ds.name, func(t *testing.T) {
				degradedRollups += faultServingSweep(t, ds, fault.Config{CorruptEvery: 7}, 7, -1)
			})
		}
		for _, ds := range ladderDatasets() {
			t.Run("ladder_"+ds.name, func(t *testing.T) {
				degradedLadder += faultLadderSweep(t, ds, fault.Config{CorruptEvery: 7}, 7, -1)
			})
		}
		if degradedRollups == 0 {
			t.Error("no roll-up answer came back degraded — the leg does not reach the roll-up re-scan")
		}
		if degradedLadder == 0 {
			t.Error("no multi-generation direct answer came back degraded — the leg does not reach the merge's restart")
		}
	})
}

// explicitFailure reports whether err carries one of the sentinels a
// faulted read may fail with.
func explicitFailure(err error) bool {
	return errors.Is(err, cellfile.ErrCorrupt) || errors.Is(err, cellfile.ErrTruncated) ||
		fault.IsInjected(err)
}

// faultServingSweep runs one dataset family of TestDifferentialFaultServing
// over ten seeds, injecting cfg's faults (cfg.Seed is set per seed), and
// returns how many roll-up answers came back degraded.
func faultServingSweep(t *testing.T, ds diffServeDataset, cfg fault.Config, blockCells, retries int) int {
	const seeds = 10
	reg := obs.New()
	var degraded, degradedRollups int
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			lat, set := ds.build(t, seed)
			cfg.Seed = seed
			inj := fault.New(cfg)
			inj.Observe(reg)
			s, err := Build(filepath.Join(t.TempDir(), "cube.x3ci"), lat, set, Options{
				Registry: reg, Views: ds.views, BlockCells: blockCells, CacheBytes: -1,
				Fault: inj, Retries: retries,
			})
			if err != nil {
				// A build may fail when injection outlasts the open
				// retries — but only with an explicit sentinel.
				if !explicitFailure(err) {
					t.Fatalf("build failed without a sentinel: %v", err)
				}
				t.Logf("build failed explicitly: %v", err)
				return
			}
			defer s.Close()
			oracle, err := cube.RunOracle(lat, set, set.Dicts)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range lat.Points() {
				for _, q := range append([]Query{{Point: p}}, pinnedQueries(s, oracle, p)...) {
					ans, err := s.Answer(context.Background(), q)
					if err != nil {
						if !explicitFailure(err) {
							t.Fatalf("%s where %v: failed without a sentinel: %v", lat.Label(p), q.Where, err)
						}
						continue
					}
					if ans.Degraded {
						degraded++
						if ans.Plan == PlanRollup {
							degradedRollups++
						}
					}
					assertRowsMatchOracle(t, s, oracle, q, ans)
				}
			}
		})
	}
	if reg.Counter("fault.injected.corrupt").Value() == 0 {
		t.Error("the sweep injected no corruption — the harness is not exercising faults")
	}
	t.Logf("%s: %d degraded answers (%d roll-ups), %d corruptions, %d short reads injected", ds.name,
		degraded, degradedRollups, reg.Counter("fault.injected.corrupt").Value(), reg.Counter("fault.injected.short").Value())
	return degradedRollups
}

// faultLadderSweep is faultServingSweep over delta-ladder stores: each
// seed builds a base generation, flushes two deltas and leaves a third
// append in the memtable, so every direct answer merges three generations
// and the memtable while cfg's faults hit the generation reads. Every
// answer must be byte-equal to the oracle or fail with a sentinel.
// Returns how many direct answers came back degraded.
func faultLadderSweep(t *testing.T, ds ladderDataset, cfg fault.Config, blockCells, retries int) int {
	const seeds = 10
	reg := obs.New()
	var degradedDirect int
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ctx := context.Background()
			lat := ds.lat(t)
			oracle := newLadderOracle(t, lat)
			base := oracle.add(t, ds.doc(seed))
			cfg.Seed = seed
			inj := fault.New(cfg)
			inj.Observe(reg)
			s, err := BuildDir(t.TempDir(), lat, base, Options{
				Registry: reg, Views: ds.views, BlockCells: blockCells, CacheBytes: -1,
				Fault: inj, Retries: retries, FlushCells: -1, CompactAfter: -1,
			})
			if err != nil {
				if !explicitFailure(err) {
					t.Fatalf("build failed without a sentinel: %v", err)
				}
				t.Logf("build failed explicitly: %v", err)
				return
			}
			defer s.Close()
			for k := int64(1); k <= 3; k++ {
				doc := ds.doc(seed*100 + k)
				oracle.add(t, doc)
				if _, err := s.Append(ctx, docBytes(t, doc)); err != nil {
					t.Fatalf("append %d: %v", k, err)
				}
				// A flush re-opens the delta it wrote under the injector.
				// A failed attempt fails explicitly and leaves the
				// memtable serving, so the next attempt writes the same
				// delta again.
				for attempt := 0; k < 3; attempt++ {
					err := s.Flush(ctx)
					if err == nil {
						break
					}
					if !explicitFailure(err) || attempt == 20 {
						t.Fatalf("flush %d, attempt %d: %v", k, attempt, err)
					}
				}
			}
			if d, m := s.Generations(); d != 2 || m == 0 {
				t.Fatalf("ladder holds %d deltas and %d memtable cells, want 2 and some", d, m)
			}
			res := oracle.result(t)
			for _, p := range lat.Points() {
				for _, q := range append([]Query{{Point: p}}, pinnedQueries(s, res, p)...) {
					ans, err := s.Answer(ctx, q)
					if err != nil {
						if !explicitFailure(err) {
							t.Fatalf("%s where %v: failed without a sentinel: %v", lat.Label(p), q.Where, err)
						}
						continue
					}
					if ans.Degraded && ans.Plan == PlanDirect {
						degradedDirect++
					}
					assertRowsMatchOracle(t, s, res, q, ans)
				}
			}
		})
	}
	t.Logf("%s: %d degraded direct answers over three generations and the memtable", ds.name, degradedDirect)
	return degradedDirect
}

// TestDegradedServingLadder corrupts the store's cell file on disk and
// verifies the fallback ladder end to end: the indexed read detects the
// flipped bit by checksum, the sequential re-scan re-detects it (the
// corruption is persistent), and the base-fact recompute still produces
// byte-exact answers — flagged degraded, with the serve.degraded.*
// counters moving.
func TestDegradedServingLadder(t *testing.T) {
	lat, set, _ := treebankWorkload(t, 47, 120, cleanAxes(2))
	reg := obs.New()
	path := filepath.Join(t.TempDir(), "cube.x3ci")
	s, err := Build(path, lat, set, Options{Registry: reg, BlockCells: 8, CacheBytes: -1, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	oracle, err := cube.RunOracle(lat, set, set.Dicts)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one bit inside the first data block. The open reader sees the
	// change through its fd (same inode).
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[8] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	var degradedBase int
	for _, p := range lat.Points() {
		ans, err := s.Answer(context.Background(), Query{Point: p})
		if err != nil {
			t.Fatalf("%s: degraded serving failed: %v", lat.Label(p), err)
		}
		if ans.Degraded {
			if ans.Plan != PlanBase {
				t.Fatalf("%s: degraded answer with plan %s, want base", lat.Label(p), ans.Plan)
			}
			degradedBase++
		}
		assertRowsMatchOracle(t, s, oracle, Query{Point: p}, ans)
	}
	if degradedBase == 0 {
		t.Fatal("no query hit the corrupt block — the ladder was never exercised")
	}
	if reg.Counter("serve.degraded.scan").Value() == 0 {
		t.Error("serve.degraded.scan did not move")
	}
	if reg.Counter("serve.degraded.base").Value() == 0 {
		t.Error("serve.degraded.base did not move")
	}
}

// TestAppendWALErrorFaultLeavesStoreUnchanged injects an error (not a
// crash) into the WAL write of an append that introduces a new author.
// The append must fail explicitly and leave the live dictionaries and
// fact count untouched — staging interns into overlays that only a
// durable append commits — so the next append, with another new author,
// numbers its value exactly as recovery will. After Close and OpenDir
// all 16 cuboids are byte-equal to the oracle, and the recovered
// dictionaries map every value to the live store's ID.
func TestAppendWALErrorFaultLeavesStoreUnchanged(t *testing.T) {
	ds := ladderDatasets()[1]
	lat := ds.lat(t)
	if lat.Size() != 16 {
		t.Fatalf("DBLP lattice has %d cuboids, want 16", lat.Size())
	}
	ctx := context.Background()
	oracle := newLadderOracle(t, lat)
	baseDoc := ds.doc(5)
	dir := t.TempDir()
	opt := Options{Views: ds.views, BlockCells: 16, FlushCells: -1, CompactAfter: -1}
	s, err := BuildDir(dir, lat, oracle.add(t, baseDoc), opt)
	if err != nil {
		t.Fatal(err)
	}
	lens, facts := dictLens(s), s.NumFacts()

	failed := articleDoc(t, "journals/j1/fault-a", "Fault Author A", "Journal 1", 1999)
	s.walW.SetFault(fault.New(fault.Config{Seed: 1, ErrEvery: 1}))
	_, err = s.Append(ctx, docBytes(t, failed))
	s.walW.SetFault(nil)
	if !fault.IsInjected(err) {
		t.Fatalf("append under a failing WAL: %v, want an injected fault", err)
	}
	if got := dictLens(s); fmt.Sprint(got) != fmt.Sprint(lens) {
		t.Fatalf("failed append changed dictionary lengths %v -> %v", lens, got)
	}
	if got := s.NumFacts(); got != facts {
		t.Fatalf("failed append changed the fact count %d -> %d", facts, got)
	}

	next := articleDoc(t, "journals/j2/fault-b", "Fault Author B", "Journal 2", 2001)
	oracle.add(t, next)
	if _, err := s.Append(ctx, docBytes(t, next)); err != nil {
		t.Fatalf("append after the fault cleared: %v", err)
	}
	if id, ok := s.base.Dicts[0].Lookup("Fault Author B"); !ok || int(id) != lens[0] {
		t.Fatalf("new author numbered %d (found %v), want %d — the failed append leaked an ID", id, ok, lens[0])
	}
	want := oracleSnapshot(t, lat, oracle.result(t))
	if !sameSnapshot(answerSnapshot(t, s), want) {
		t.Fatal("live store differs from the oracle after a failed append")
	}
	live := make([][]string, len(s.base.Dicts))
	for a, d := range s.base.Dicts {
		live[a] = append([]string(nil), d.Values()...)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	recBase, err := match.Evaluate(baseDoc, lat)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := OpenDir(dir, lat, recBase, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !sameSnapshot(answerSnapshot(t, s2), want) {
		t.Fatal("recovered store differs from the oracle")
	}
	for a, d := range s2.base.Dicts {
		if fmt.Sprint(d.Values()) != fmt.Sprint(live[a]) {
			t.Fatalf("axis %d: recovered dictionary %v, live %v", a, d.Values(), live[a])
		}
	}
}

// TestServeCancellation pins the contract: a cancelled or expired context
// aborts answers, wire requests and refreshes with an error wrapping the
// context's, and a nil context means no deadline.
func TestServeCancellation(t *testing.T) {
	axes := cleanAxes(3)
	lat, set, _ := treebankWorkload(t, 43, 200, axes)
	s, err := BuildDir(t.TempDir(), lat, set, Options{BlockCells: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Answer(cancelled, Query{Point: lat.Top()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Answer under cancelled ctx: %v, want wrapped context.Canceled", err)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := s.Answer(expired, Query{Point: lat.Top()}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Answer under expired deadline: %v, want wrapped DeadlineExceeded", err)
	}
	if _, err := s.ServeRequest(cancelled, Request{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ServeRequest under cancelled ctx: %v", err)
	}
	delta := dataset.Treebank(dataset.TreebankConfig{Seed: 44, Facts: 10, Axes: axes})
	if _, err := s.RefreshDoc(cancelled, delta); !errors.Is(err, context.Canceled) {
		t.Fatalf("RefreshDoc under cancelled ctx: %v", err)
	}
	if n := s.NumFacts(); n != set.NumFacts() {
		t.Fatalf("cancelled refresh changed the fact count: %d, want %d", n, set.NumFacts())
	}
	if _, err := s.Answer(nil, Query{Point: lat.Top()}); err != nil {
		t.Fatalf("nil ctx must mean no deadline: %v", err)
	}
}

// TestRefreshWriteFaultLeavesOldGeneration injects persistent write
// errors (not a crash schedule) into every generation file a refresh
// publishes. The WAL append lands first, so the refresh fails explicitly
// at its flush with the document already acknowledged: the old
// generation set keeps serving it from the memtable, no temp file is left
// behind, and a recovery from disk serves the same answers.
func TestRefreshWriteFaultLeavesOldGeneration(t *testing.T) {
	ds := ladderDatasets()[0]
	lat := ds.lat(t)
	oracle := newLadderOracle(t, lat)
	baseDoc := ds.doc(53)
	dir := t.TempDir()
	opt := Options{Views: ds.views, BlockCells: 8}
	s, err := BuildDir(dir, lat, oracle.add(t, baseDoc), opt)
	if err != nil {
		t.Fatal(err)
	}

	s.fault = fault.New(fault.Config{Seed: 5, ErrEvery: 1})
	delta := ds.doc(54)
	oracle.add(t, delta)
	_, err = s.RefreshDoc(context.Background(), delta)
	s.fault = nil
	if err == nil {
		t.Fatal("refresh succeeded with every generation write failing")
	}
	if !fault.IsInjected(err) {
		t.Fatalf("refresh error does not wrap the injected fault: %v", err)
	}
	if d, m := s.Generations(); d != 0 || m == 0 {
		t.Fatalf("failed refresh left %d deltas and %d memtable cells, want the document in the memtable", d, m)
	}
	want := oracleSnapshot(t, lat, oracle.result(t))
	if !sameSnapshot(answerSnapshot(t, s), want) {
		t.Fatal("the acknowledged document is not served after the failed refresh")
	}
	if tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp")); err != nil || len(tmps) > 0 {
		t.Errorf("failed refresh leaked temp files: %v (%v)", tmps, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	recBase, err := match.Evaluate(baseDoc, lat)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := OpenDir(dir, lat, recBase, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !sameSnapshot(answerSnapshot(t, s2), want) {
		t.Fatal("recovered store differs from the live one after the failed refresh")
	}
}
