package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"x3/internal/cellfile"
	"x3/internal/cube"
	"x3/internal/dataset"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/obs"
	"x3/internal/pattern"
	"x3/internal/xmltree"
)

// treebankWorkload generates a Treebank corpus and evaluates its query.
// Per-axis knobs: pMissing breaks coverage, pRepeat breaks disjointness.
func treebankWorkload(tb testing.TB, seed int64, facts int, axes []dataset.AxisConfig) (*lattice.Lattice, *match.Set, *xmltree.Document) {
	tb.Helper()
	cfg := dataset.TreebankConfig{Seed: seed, Facts: facts, Axes: axes}
	doc := dataset.Treebank(cfg)
	lat, err := lattice.New(dataset.TreebankQuery(axes))
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
	return lat, set, doc
}

// mixedAxes returns three axes with distinct summarizability behaviour:
// axis 0 clean (safe to roll up), axis 1 breaks coverage, axis 2 breaks
// disjointness — so a store over this data has both safe and unsafe
// lattice edges.
func mixedAxes() []dataset.AxisConfig {
	lnd := pattern.RelaxSet(0).With(pattern.LND)
	return []dataset.AxisConfig{
		{Tag: "w0", Cardinality: 4, Relax: lnd},
		{Tag: "w1", Cardinality: 4, PMissing: 0.25, Relax: lnd},
		{Tag: "w2", Cardinality: 4, PRepeat: 0.4, Relax: lnd},
	}
}

func cleanAxes(n int) []dataset.AxisConfig {
	lnd := pattern.RelaxSet(0).With(pattern.LND)
	axes := make([]dataset.AxisConfig, n)
	for i := range axes {
		axes[i] = dataset.AxisConfig{Tag: fmt.Sprintf("w%d", i), Cardinality: 4, Relax: lnd}
	}
	return axes
}

// packKey appends a group key as big-endian bytes: snapshots compare keys
// and states as one byte string.
func packKey(dst []byte, vals []match.ValueID) []byte {
	for _, v := range vals {
		dst = binary.BigEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// assertCuboidMatchesOracle compares a full-cuboid answer with the oracle
// cuboid cell by cell, byte-equal on keys and encoded aggregate states.
func assertCuboidMatchesOracle(tb testing.TB, s *Store, oracle *cube.Result, p lattice.Point) PlanKind {
	tb.Helper()
	return assertQueryMatchesOracle(tb, s, oracle, Query{Point: p}).Plan
}

// assertQueryMatchesOracle answers q and compares the answer with the
// oracle (assertRowsMatchOracle).
func assertQueryMatchesOracle(tb testing.TB, s *Store, oracle *cube.Result, q Query) *Answer {
	tb.Helper()
	ans, err := s.Answer(context.Background(), q)
	if err != nil {
		tb.Fatalf("%s where %v: %v", s.lat.Label(q.Point), q.Where, err)
	}
	assertRowsMatchOracle(tb, s, oracle, q, ans)
	return ans
}

// oracleKeys returns the oracle's keys of q's cuboid that hold every
// value q pins, in key order.
func oracleKeys(s *Store, oracle *cube.Result, q Query) [][]match.ValueID {
	live := s.lat.LiveAxes(q.Point)
	var out [][]match.ValueID
next:
	for _, k := range oracle.Keys(q.Point) {
		for i, a := range live {
			if v, ok := q.Where[a]; ok && k[i] != v {
				continue next
			}
		}
		out = append(out, k)
	}
	return out
}

// assertRowsMatchOracle compares an answer to q with the oracle cuboid,
// filtered by q's pins, cell by cell, byte-equal on keys and encoded
// aggregate states.
func assertRowsMatchOracle(tb testing.TB, s *Store, oracle *cube.Result, q Query, ans *Answer) {
	tb.Helper()
	p := q.Point
	keys := oracleKeys(s, oracle, q)
	if len(ans.Rows) != len(keys) {
		tb.Fatalf("%s where %v (plan %s): answered %d cells, oracle has %d",
			s.lat.Label(p), q.Where, ans.Plan, len(ans.Rows), len(keys))
	}
	for i, row := range ans.Rows {
		if string(packKey(nil, row.Key)) != string(packKey(nil, keys[i])) {
			tb.Fatalf("%s where %v (plan %s) cell %d: key %v, oracle %v", s.lat.Label(p), q.Where, ans.Plan, i, row.Key, keys[i])
		}
		want, ok := oracle.State(p, keys[i])
		if !ok {
			tb.Fatalf("oracle lost its own key %v", keys[i])
		}
		var got32, want32 [32]byte
		row.State.Encode(got32[:])
		want.Encode(want32[:])
		if got32 != want32 {
			tb.Fatalf("%s where %v (plan %s) cell %v: state %+v, oracle %+v",
				s.lat.Label(p), q.Where, ans.Plan, row.Key, row.State, want)
		}
	}
}

// absentValue is a value no dictionary of the test corpora assigns.
const absentValue = match.ValueID(1 << 30)

// pinnedQueries returns the pinned legs of the differential suites over
// cuboid p, with values from the oracle's middle key: a pin on the
// leading live axis, a full-key point, a two-axis leading prefix, a pin
// on a non-leading axis alone, and a leading pin on a value no cell
// holds. A cuboid without live axes has none, one without cells only the
// last, one with a single live axis no two-axis or non-leading pin.
func pinnedQueries(s *Store, oracle *cube.Result, p lattice.Point) []Query {
	live := s.lat.LiveAxes(p)
	if len(live) == 0 {
		return nil
	}
	qs := []Query{{Point: p, Where: map[int]match.ValueID{live[0]: absentValue}}}
	keys := oracle.Keys(p)
	if len(keys) == 0 {
		return qs
	}
	mid := keys[len(keys)/2]
	pin := func(pos ...int) Query {
		where := make(map[int]match.ValueID, len(pos))
		for _, i := range pos {
			where[live[i]] = mid[i]
		}
		return Query{Point: p, Where: where}
	}
	every := make([]int, len(live))
	for i := range every {
		every[i] = i
	}
	qs = append(qs, pin(0), pin(every...))
	if len(live) > 1 {
		qs = append(qs, pin(0, 1), pin(len(live)-1))
	}
	return qs
}

// leadingRollup reports whether ans answered q by rolling up a finer
// cuboid whose leading key position q pins, so the roll-up's read seeks.
func leadingRollup(s *Store, q Query, ans *Answer) bool {
	live := s.lat.LiveAxes(q.Point)
	if ans.Plan != PlanRollup || len(live) == 0 {
		return false
	}
	_, pinned := q.Where[live[0]]
	return pinned && s.lat.LiveAxes(ans.From)[0] == live[0]
}

// assertPinnedMatchOracle answers cuboid p's pinned queries and compares
// each answer with the oracle filtered the same way. It returns how many
// were roll-ups whose pin landed on the finer cuboid's leading position.
func assertPinnedMatchOracle(tb testing.TB, s *Store, oracle *cube.Result, p lattice.Point) (leadingRollups int) {
	tb.Helper()
	for _, q := range pinnedQueries(s, oracle, p) {
		if leadingRollup(s, q, assertQueryMatchesOracle(tb, s, oracle, q)) {
			leadingRollups++
		}
	}
	return leadingRollups
}

func TestDirectAnswersMatchOracleEverywhere(t *testing.T) {
	lat, set, _ := treebankWorkload(t, 7, 80, mixedAxes())
	reg := obs.New()
	s, err := Build(filepath.Join(t.TempDir(), "cube.x3cf"), lat, set,
		Options{Registry: reg, BlockCells: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	oracle, err := cube.RunOracle(lat, set, set.Dicts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range lat.Points() {
		if plan := assertCuboidMatchesOracle(t, s, oracle, p); plan != PlanDirect {
			t.Fatalf("%s: plan %s with everything materialized, want direct", lat.Label(p), plan)
		}
	}
}

// TestSliceScanIsBounded pins the acceptance criterion: answering one
// cuboid out of an indexed store must not scan the whole cell file.
func TestSliceScanIsBounded(t *testing.T) {
	lat, set, _ := treebankWorkload(t, 3, 300, cleanAxes(3))
	reg := obs.New()
	s, err := Build(filepath.Join(t.TempDir(), "cube.x3cf"), lat, set,
		Options{Registry: reg, BlockCells: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	total := s.rdr.NumCells()
	if s.rdr.NumBlocks() < 4 {
		t.Fatalf("workload too small to test bounded scans: %d blocks", s.rdr.NumBlocks())
	}
	// A mid-lattice cuboid: axis 0 grouped, the others relaxed.
	p := lat.Bottom()
	p[0] = 0
	before := reg.Counter("serve.scan.cells").Value()
	if _, err := s.Answer(context.Background(), Query{Point: p}); err != nil {
		t.Fatal(err)
	}
	scanned := reg.Counter("serve.scan.cells").Value() - before
	if scanned == 0 {
		t.Fatal("scan counter did not move")
	}
	if scanned >= total {
		t.Fatalf("slice query scanned %d of %d cells — not using the index", scanned, total)
	}
}

// TestLeadingPinReadsAtMostTwoBlocks pins the seek's cost. On a DBLP
// store of 2,000 articles in 256-cell blocks, an $au-pinned direct
// answer on each of the eight cuboids that keep $au rigid, its leading
// key axis, decodes at most two blocks per generation — from a single
// file, and from a ladder of a base, two deltas and the memtable —
// where the whole cuboid spans many more.
func TestLeadingPinReadsAtMostTwoBlocks(t *testing.T) {
	ctx := context.Background()
	lat, err := lattice.New(dataset.DBLPQuery())
	if err != nil {
		t.Fatal(err)
	}
	dicts := make([]*match.Dict, lat.NumAxes())
	for i := range dicts {
		dicts[i] = match.NewDict()
	}
	base, err := match.EvaluateWith(dataset.DBLP(dataset.DefaultDBLPConfig(2000, 1)), lat, dicts)
	if err != nil {
		t.Fatal(err)
	}
	stores := []struct {
		name  string
		gens  int64
		build func(opt Options) *Store
	}{
		{"file", 1, func(opt Options) *Store {
			s, err := Build(filepath.Join(t.TempDir(), "cube.x3ci"), lat, base, opt)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"ladder", 3, func(opt Options) *Store {
			opt.FlushCells, opt.CompactAfter = -1, -1
			s, err := BuildDir(t.TempDir(), lat, base, opt)
			if err != nil {
				t.Fatal(err)
			}
			for k := int64(1); k <= 3; k++ {
				doc := dataset.DBLP(dataset.DefaultDBLPConfig(100, 1+k))
				if _, err := s.Append(ctx, docBytes(t, doc)); err != nil {
					t.Fatal(err)
				}
				if k < 3 {
					if err := s.Flush(ctx); err != nil {
						t.Fatal(err)
					}
				}
			}
			return s
		}},
	}
	for _, st := range stores {
		reg := obs.New()
		s := st.build(Options{Registry: reg, CacheBytes: -1})
		defer s.Close()
		au, err := s.lat.AxisByVar("$au")
		if err != nil {
			t.Fatal(err)
		}
		scanned := reg.Counter("serve.scan.cells")
		bound := 2 * int64(cellfile.DefaultBlockCells) * st.gens
		widest := int64(0)
		for i := range 8 {
			states := map[string]string{"$au": "rigid"}
			for b, v := range []string{"$m", "$y", "$j"} {
				if i&(1<<b) == 0 {
					states[v] = "rigid"
				}
			}
			p, err := s.lat.PointFromStates(states)
			if err != nil {
				t.Fatal(err)
			}
			if live := lat.LiveAxes(p); live[0] != au {
				t.Fatalf("%s: $au is not the leading key axis", lat.Label(p))
			}
			before := scanned.Value()
			whole, err := s.Answer(ctx, Query{Point: p})
			if err != nil {
				t.Fatal(err)
			}
			widest = max(widest, scanned.Value()-before)
			for k := 1; k <= 4; k++ {
				author := whole.Rows[len(whole.Rows)*k/5].Key[0]
				before := scanned.Value()
				ans, err := s.Answer(ctx, Query{Point: p, Where: map[int]match.ValueID{au: author}})
				if err != nil {
					t.Fatal(err)
				}
				if ans.Plan != PlanDirect || len(ans.Rows) == 0 {
					t.Fatalf("%s, %s, author %d: plan %s, %d rows; want a direct answer", st.name, lat.Label(p), author, ans.Plan, len(ans.Rows))
				}
				if n := scanned.Value() - before; n > bound {
					t.Errorf("%s, %s, author %d: decoded %d cells over %d generations, more than two %d-cell blocks each",
						st.name, lat.Label(p), author, n, st.gens, cellfile.DefaultBlockCells)
				}
			}
		}
		if widest <= 2*bound {
			t.Fatalf("%s: the widest whole cuboid decodes only %d cells: too small to tell a seek from a scan", st.name, widest)
		}
		t.Logf("%s: the widest whole cuboid decodes %d cells; a pinned answer at most %d", st.name, widest, bound)
	}
}

func TestBlockCacheHits(t *testing.T) {
	lat, set, _ := treebankWorkload(t, 5, 200, cleanAxes(2))
	reg := obs.New()
	s, err := Build(filepath.Join(t.TempDir(), "cube.x3cf"), lat, set,
		Options{Registry: reg, BlockCells: 16, CacheBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	q := Query{Point: lat.Top()}
	if _, err := s.Answer(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	misses := reg.Counter("serve.cache.misses").Value()
	if misses == 0 {
		t.Fatal("first read reported no cache misses")
	}
	if _, err := s.Answer(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("serve.cache.misses").Value() != misses {
		t.Error("second read missed the cache")
	}
	if reg.Counter("serve.cache.hits").Value() == 0 {
		t.Error("second read recorded no cache hits")
	}
}

func TestPointAndSliceQueries(t *testing.T) {
	lat, set, _ := treebankWorkload(t, 11, 120, cleanAxes(2))
	s, err := Build(filepath.Join(t.TempDir(), "cube.x3cf"), lat, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	oracle, err := cube.RunOracle(lat, set, set.Dicts)
	if err != nil {
		t.Fatal(err)
	}
	top := lat.Top()
	keys := oracle.Keys(top)
	if len(keys) == 0 {
		t.Fatal("empty top cuboid")
	}
	// Point query: pin every live axis of the rigid cuboid.
	where := map[int]match.ValueID{}
	for i, a := range lat.LiveAxes(top) {
		where[a] = keys[0][i]
	}
	ans, err := s.Answer(context.Background(), Query{Point: top, Where: where})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 1 {
		t.Fatalf("point query returned %d rows", len(ans.Rows))
	}
	want, _ := oracle.State(top, keys[0])
	if ans.Rows[0].State != want {
		t.Fatalf("point query state %+v, want %+v", ans.Rows[0].State, want)
	}
	// Slice query: pin only the first axis; every returned cell must
	// carry the pinned value and the set must match the oracle's slice.
	a0 := lat.LiveAxes(top)[0]
	slice, err := s.Answer(context.Background(), Query{Point: top, Where: map[int]match.ValueID{a0: keys[0][0]}})
	if err != nil {
		t.Fatal(err)
	}
	var oracleSlice int
	for _, k := range keys {
		if k[0] == keys[0][0] {
			oracleSlice++
		}
	}
	if len(slice.Rows) != oracleSlice {
		t.Fatalf("slice returned %d rows, oracle slice has %d", len(slice.Rows), oracleSlice)
	}
	for _, r := range slice.Rows {
		if r.Key[0] != keys[0][0] {
			t.Fatalf("slice row %v escaped the constraint", r.Key)
		}
	}
}

func TestViewLimitedStoreUsesRollupAndBase(t *testing.T) {
	lat, set, _ := treebankWorkload(t, 13, 80, mixedAxes())
	reg := obs.New()
	s, err := Build(filepath.Join(t.TempDir(), "cube.x3cf"), lat, set,
		Options{Registry: reg, Views: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, want := len(s.Materialized()), lat.Size(); got >= want {
		t.Fatalf("view-limited store materialized %d of %d cuboids", got, want)
	}
	oracle, err := cube.RunOracle(lat, set, set.Dicts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range lat.Points() {
		assertCuboidMatchesOracle(t, s, oracle, p)
	}
	if reg.Counter("serve.plan.base").Value() == 0 {
		t.Error("no query fell back to base recomputation on property-violating data")
	}
	if reg.Counter("serve.plan.direct").Value() == 0 {
		t.Error("no query was answered directly")
	}
}

func TestRefreshDocMaintainsServedCube(t *testing.T) {
	axes := mixedAxes()
	lat, set, _ := treebankWorkload(t, 17, 60, axes)
	s, err := BuildDir(t.TempDir(), lat, set, Options{Views: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Expected state after refresh: the same delta evaluated against the
	// original dictionaries (the store clones them ID-compatibly).
	delta := dataset.Treebank(dataset.TreebankConfig{Seed: 18, Facts: 40, Axes: axes})
	deltaSet, err := match.EvaluateWith(delta, lat, set.Dicts)
	if err != nil {
		t.Fatal(err)
	}
	combined := &match.Set{Lattice: lat, Dicts: set.Dicts,
		Facts: append(append([]*match.Fact{}, set.Facts...), deltaSet.Facts...)}

	added, err := s.RefreshDoc(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}
	if added != int64(deltaSet.NumFacts()) {
		t.Fatalf("refresh added %d facts, delta has %d", added, deltaSet.NumFacts())
	}
	if s.NumFacts() != combined.NumFacts() {
		t.Fatalf("store has %d facts, want %d", s.NumFacts(), combined.NumFacts())
	}
	oracle, err := cube.RunOracle(lat, combined, combined.Dicts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range lat.Points() {
		assertCuboidMatchesOracle(t, s, oracle, p)
	}
	if d, m := s.Generations(); d != 0 || m != 0 {
		t.Fatalf("refresh left %d deltas and %d memtable cells, want one base generation", d, m)
	}
}

// TestRefreshDocRefusedOnBuildStore pins that a store built with Build is
// read-only: RefreshDoc answers ErrBadRequest and leaves the cell file
// byte-identical and the fact count unchanged.
func TestRefreshDocRefusedOnBuildStore(t *testing.T) {
	axes := cleanAxes(2)
	lat, set, _ := treebankWorkload(t, 29, 40, axes)
	path := filepath.Join(t.TempDir(), "cube.x3ci")
	s, err := Build(path, lat, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	delta := dataset.Treebank(dataset.TreebankConfig{Seed: 30, Facts: 10, Axes: axes})
	if _, err := s.RefreshDoc(context.Background(), delta); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("RefreshDoc on a Build store: %v, want ErrBadRequest", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("refused refresh changed the cell file")
	}
	if n := s.NumFacts(); n != set.NumFacts() {
		t.Fatalf("refused refresh changed the fact count: %d, want %d", n, set.NumFacts())
	}
}

func TestServeRequestWireForm(t *testing.T) {
	lat, set, _ := treebankWorkload(t, 19, 60, cleanAxes(2))
	s, err := Build(filepath.Join(t.TempDir(), "cube.x3cf"), lat, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	v0 := lat.Ladders[0].Spec.Var
	resp, err := s.ServeRequest(context.Background(), Request{Cuboid: map[string]string{v0: "rigid"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) == 0 || resp.Plan != "direct" {
		t.Fatalf("unexpected response: plan=%s rows=%d", resp.Plan, len(resp.Rows))
	}
	var total float64
	for _, r := range resp.Rows {
		total += r.Value
	}
	// Pin one group and expect exactly its row back.
	one, err := s.ServeRequest(context.Background(), Request{
		Cuboid: map[string]string{v0: "rigid"},
		Where:  map[string]string{v0: resp.Rows[0].Values[0]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Rows) != 1 || one.Rows[0].Value != resp.Rows[0].Value {
		t.Fatalf("pinned query returned %+v, want the %v row", one.Rows, resp.Rows[0])
	}
	// A never-seen value answers empty, not an error.
	none, err := s.ServeRequest(context.Background(), Request{
		Cuboid: map[string]string{v0: "rigid"},
		Where:  map[string]string{v0: "no-such-value"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(none.Rows) != 0 {
		t.Fatalf("unseen value returned %d rows", len(none.Rows))
	}
	// Unknown axes and states are errors.
	if _, err := s.ServeRequest(context.Background(), Request{Cuboid: map[string]string{"$nope": "rigid"}}); err == nil {
		t.Error("unknown axis accepted")
	}
	if _, err := s.ServeRequest(context.Background(), Request{Cuboid: map[string]string{v0: "warp"}}); err == nil {
		t.Error("unknown state accepted")
	}
	if _, err := s.ServeRequest(context.Background(), Request{Where: map[string]string{v0: "a"}}); err == nil {
		t.Error("constraint on a deleted axis accepted")
	}
}

// TestUnseenPinIsPlannedAndCounted pins that a request pinned to a value
// no dictionary holds takes the planner's route on a cuboid that is not
// materialized: it answers no rows under a roll-up or base plan, reads
// no cell and no fact, and counts as a query of that cuboid — in
// serve.queries, its plan counter and the cost model's per-cuboid count.
func TestUnseenPinIsPlannedAndCounted(t *testing.T) {
	lat, set, _ := treebankWorkload(t, 13, 80, mixedAxes())
	reg := obs.New()
	s, err := Build(filepath.Join(t.TempDir(), "cube.x3ci"), lat, set, Options{Registry: reg, Views: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var target *CuboidStatus
	report := s.CuboidReport()
	for i, cs := range report {
		if !cs.Materialized && len(lat.LiveAxes(lat.FromID(cs.PID))) > 0 {
			target = &report[i]
			break
		}
	}
	if target == nil {
		t.Fatal("every cuboid with a live axis is materialized")
	}
	p := lat.FromID(target.PID)
	cuboid := map[string]string{}
	for a, lad := range lat.Ladders {
		cuboid[lad.Spec.Var] = lad.States[p[a]].Label
	}
	pinned := lat.Ladders[lat.LiveAxes(p)[0]].Spec.Var
	counters := []string{"serve.queries", "serve.scan.cells", "serve.base.facts", "serve.plan.rollup", "serve.plan.base"}
	before := map[string]int64{}
	for _, c := range counters {
		before[c] = reg.Counter(c).Value()
	}
	ca, err := s.AnswerCells(context.Background(), Request{Cuboid: cuboid, Where: map[string]string{pinned: "no-such-value"}})
	if err != nil {
		t.Fatal(err)
	}
	if ca.Cuboid != target.Label || len(ca.Rows) != 0 || (ca.Plan != PlanRollup && ca.Plan != PlanBase) {
		t.Fatalf("%s where %s unseen: cuboid %s, plan %s, %d rows; want no rows under a roll-up or base plan",
			target.Label, pinned, ca.Cuboid, ca.Plan, len(ca.Rows))
	}
	for _, c := range counters {
		want := before[c]
		if c == "serve.queries" || c == "serve.plan."+ca.Plan.String() {
			want++
		}
		if got := reg.Counter(c).Value(); got != want {
			t.Errorf("%s: %d after the query, want %d", c, got, want)
		}
	}
	if got := s.CuboidReport()[target.PID].Queries; got != target.Queries+1 {
		t.Errorf("%s: %d queries recorded, want %d", target.Label, got, target.Queries+1)
	}
}

func TestIcebergRefused(t *testing.T) {
	lat, set, _ := treebankWorkload(t, 23, 40, cleanAxes(2))
	lat.Query.MinSupport = 2
	if _, err := Build(filepath.Join(t.TempDir(), "cube.x3cf"), lat, set, Options{}); err == nil {
		t.Fatal("iceberg cube accepted for serving")
	}
}
