package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"x3/internal/cellfile"
	"x3/internal/cube"
	"x3/internal/dataset"
	"x3/internal/fault"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/obs"
	"x3/internal/wal"
	"x3/internal/xmltree"
)

// oracleSnapshot encodes every cuboid of an oracle result the way
// answerSnapshot encodes a store's answers, so expected states compare
// byte-for-byte against served ones.
func oracleSnapshot(tb testing.TB, lat *lattice.Lattice, res *cube.Result) map[string]string {
	tb.Helper()
	snap := make(map[string]string, lat.Size())
	for _, p := range lat.Points() {
		var enc []byte
		for _, key := range res.Keys(p) {
			enc = packKey(enc, key)
			st, _ := res.State(p, key)
			var b [32]byte
			st.Encode(b[:])
			enc = append(enc, b[:]...)
		}
		snap[lat.Label(p)] = string(enc)
	}
	return snap
}

func sameSnapshot(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// ladderCrashFixture is the shared workload of the maintenance crash
// sweeps: a base document plus three appends, with oracle snapshots of
// the store state before and after the final append.
type ladderCrashFixture struct {
	axes     []dataset.AxisConfig
	lat      *lattice.Lattice
	docs     []*xmltree.Document
	bodies   [][]byte
	preSnap  map[string]string // docs 0..2 absorbed
	postSnap map[string]string // docs 0..3 absorbed
}

func newLadderCrashFixture(t *testing.T, seed int64) *ladderCrashFixture {
	t.Helper()
	fx := &ladderCrashFixture{axes: mixedAxes()}
	lat, err := lattice.New(dataset.TreebankQuery(fx.axes))
	if err != nil {
		t.Fatal(err)
	}
	fx.lat = lat
	for i := int64(0); i < 4; i++ {
		doc := dataset.Treebank(dataset.TreebankConfig{Seed: seed + i, Facts: 30, Axes: fx.axes})
		fx.docs = append(fx.docs, doc)
		fx.bodies = append(fx.bodies, docBytes(t, doc))
	}
	oracle := newLadderOracle(t, lat)
	for i, doc := range fx.docs {
		oracle.add(t, doc)
		switch i {
		case 2:
			fx.preSnap = oracleSnapshot(t, lat, oracle.result(t))
		case 3:
			fx.postSnap = oracleSnapshot(t, lat, oracle.result(t))
		}
	}
	return fx
}

// buildTo builds a fresh ladder store in dir and absorbs docs 1 and 2 —
// doc 1 flushed as a delta generation, doc 2 left in the memtable — so a
// following maintenance burst exercises WAL, flush and compaction.
func (fx *ladderCrashFixture) buildTo(t *testing.T, dir string, reg *obs.Registry) *Store {
	t.Helper()
	ctx := context.Background()
	set := fx.evalBase(t)
	s, err := BuildDir(dir, fx.lat, set, Options{
		Registry: reg, Views: 3, BlockCells: 8, FlushCells: -1, CompactAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(ctx, fx.bodies[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(ctx, fx.bodies[2]); err != nil {
		t.Fatal(err)
	}
	return s
}

// evalBase evaluates the base document against fresh dictionaries — what
// both BuildDir and a recovery OpenDir receive.
func (fx *ladderCrashFixture) evalBase(t *testing.T) *match.Set {
	t.Helper()
	dicts := make([]*match.Dict, fx.lat.NumAxes())
	for i := range dicts {
		dicts[i] = match.NewDict()
	}
	set, err := match.EvaluateWith(fx.docs[0], fx.lat, dicts)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestCrashSweepLadderMaintenance kills the maintenance path — WAL
// append, memtable flush, compaction, manifest swap — at every injected
// fault point in turn. After each kill the live store must keep serving
// answers byte-identical to a store recovered from disk, and the
// recovered state must be exactly the pre-append or post-append oracle —
// never a torn mixture. The sweep ends when a fully armed burst runs
// clean past every fault site.
func TestCrashSweepLadderMaintenance(t *testing.T) {
	fx := newLadderCrashFixture(t, 71)
	reg := obs.New()
	ctx := context.Background()
	failures, kept, applied := 0, 0, 0
	for k := 0; ; k++ {
		if k > 800 {
			t.Fatalf("maintenance did not survive the crash sweep after %d points", k)
		}
		dir := t.TempDir()
		s := fx.buildTo(t, dir, reg)
		inj := fault.NewCrash(int64(700+k), int64(k))
		inj.Observe(reg)
		s.fault = inj
		s.walW.SetFault(inj)
		err := func() error {
			if _, err := s.Append(ctx, fx.bodies[3]); err != nil {
				return err
			}
			if err := s.Flush(ctx); err != nil {
				return err
			}
			return s.Compact(ctx)
		}()
		s.fault = nil
		s.walW.SetFault(nil)
		if err == nil {
			// The burst ran clean with the injector still armed: every
			// fault site has been swept. The final state must be the fully
			// compacted post-append cube.
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2 := fx.reopen(t, dir, reg)
			if d, m := s2.Generations(); d != 0 || m != 0 {
				t.Fatalf("surviving burst left %d deltas, %d memtable cells", d, m)
			}
			if got := answerSnapshot(t, s2); !sameSnapshot(got, fx.postSnap) {
				t.Fatal("surviving burst does not serve the post-append oracle")
			}
			s2.Close()
			break
		}
		failures++
		if !fault.IsInjected(err) && !errors.Is(err, cellfile.ErrCorrupt) && !errors.Is(err, cellfile.ErrTruncated) {
			t.Fatalf("crash point %d: burst failed without a sentinel: %v", k, err)
		}
		// The live store keeps answering — possibly through the degraded
		// ladder, since generations adopted mid-burst still wear the
		// injector — and must agree byte-for-byte with a recovery from
		// disk.
		live := answerSnapshot(t, s)
		if err := s.Close(); err != nil {
			t.Fatalf("crash point %d: close: %v", k, err)
		}
		s2 := fx.reopen(t, dir, reg)
		recovered := answerSnapshot(t, s2)
		if !sameSnapshot(live, recovered) {
			t.Fatalf("crash point %d: recovered answers differ from the live store's", k)
		}
		switch {
		case sameSnapshot(recovered, fx.preSnap):
			kept++
		case sameSnapshot(recovered, fx.postSnap):
			applied++
		default:
			t.Fatalf("crash point %d: recovered state is neither pre- nor post-append", k)
		}
		assertIdempotentRecovery(t, s2, func() *Store { return fx.reopen(t, dir, reg) })
	}
	if failures == 0 {
		t.Fatal("the sweep injected no maintenance failures")
	}
	for _, site := range []string{"fault.injected.wal.append", "fault.injected.cellfile.write", "fault.injected.serve.manifest.write"} {
		if reg.Counter(site).Value() == 0 {
			t.Errorf("the sweep never crossed %s", site)
		}
	}
	t.Logf("maintenance survived after %d crash points (%d kept pre-state, %d had applied the append)",
		failures, kept, applied)
}

// assertIdempotentRecovery closes a recovered store and recovers its
// directory again: replaying the same log a second time must land on the
// same next sequence number and byte-equal answers.
func assertIdempotentRecovery(t *testing.T, s *Store, reopen func() *Store) {
	t.Helper()
	seq, snap := s.NextSeq(), answerSnapshot(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := reopen()
	defer s2.Close()
	if got := s2.NextSeq(); got != seq {
		t.Fatalf("second recovery: next sequence %d, first recovery had %d", got, seq)
	}
	if !sameSnapshot(answerSnapshot(t, s2), snap) {
		t.Fatal("second recovery serves different answers than the first")
	}
}

// reopen recovers the store from disk with no injector.
func (fx *ladderCrashFixture) reopen(t *testing.T, dir string, reg *obs.Registry) *Store {
	t.Helper()
	s, err := OpenDir(dir, fx.lat, fx.evalBase(t), Options{
		Registry: reg, Views: 3, BlockCells: 8, FlushCells: -1, CompactAfter: -1,
	})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	return s
}

// TestCrashSweepWALReplay kills recovery itself — manifest read, cell
// file opens, WAL replay — at every injected fault point: a killed open
// must fail with an explicit sentinel and leave the on-disk state
// untouched, so the next clean open serves the full pre-crash data. The
// log is never truncated on an injected fault.
func TestCrashSweepWALReplay(t *testing.T) {
	fx := newLadderCrashFixture(t, 81)
	reg := obs.New()
	ctx := context.Background()
	dir := t.TempDir()
	s := fx.buildTo(t, dir, reg)
	if _, err := s.Append(ctx, fx.bodies[3]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	failures := 0
	for k := 0; ; k++ {
		if k > 800 {
			t.Fatalf("recovery did not survive the crash sweep after %d points", k)
		}
		inj := fault.NewCrash(int64(800+k), int64(k))
		inj.Observe(reg)
		s2, err := OpenDir(dir, fx.lat, fx.evalBase(t), Options{
			Registry: reg, Views: 3, BlockCells: 8, FlushCells: -1, CompactAfter: -1, Fault: inj,
		})
		if err == nil {
			s2.Close()
			break
		}
		failures++
		explicit := fault.IsInjected(err) ||
			errors.Is(err, cellfile.ErrCorrupt) || errors.Is(err, cellfile.ErrTruncated) ||
			errors.Is(err, wal.ErrCorrupt) || errors.Is(err, wal.ErrTruncated)
		if !explicit {
			t.Fatalf("crash point %d: open failed without a sentinel: %v", k, err)
		}
	}
	if failures == 0 {
		t.Fatal("the sweep injected no recovery failures")
	}
	t.Logf("recovery survived after %d crash points", failures)

	// The surviving on-disk state, opened cleanly, is the full oracle.
	s3 := fx.reopen(t, dir, reg)
	if got := answerSnapshot(t, s3); !sameSnapshot(got, fx.postSnap) {
		t.Fatal("post-sweep recovery does not serve the full oracle")
	}
	assertIdempotentRecovery(t, s3, func() *Store { return fx.reopen(t, dir, reg) })
}

// TestCompactionCancelLeavesLadder pins compaction's cancellation
// contract: a cancelled merge aborts with a wrapped context error, the
// generation set is unchanged, and the store keeps serving.
func TestCompactionCancelLeavesLadder(t *testing.T) {
	fx := newLadderCrashFixture(t, 91)
	reg := obs.New()
	dir := t.TempDir()
	s := fx.buildTo(t, dir, reg)
	defer s.Close()
	ctx := context.Background()
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	before, _ := s.Generations()
	if before == 0 {
		t.Fatal("fixture produced no delta generations")
	}
	pre := answerSnapshot(t, s)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Compact(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled compact: %v, want wrapped context.Canceled", err)
	}
	if after, _ := s.Generations(); after != before {
		t.Fatalf("cancelled compact changed the ladder: %d generations, was %d", after, before)
	}
	for label, want := range answerSnapshot(t, s) {
		if pre[label] != want {
			t.Fatalf("cuboid %s changed after a cancelled compaction", label)
		}
	}
	if fmt.Sprint(s.Dir()) != dir {
		t.Fatalf("store dir changed: %q", s.Dir())
	}
}
