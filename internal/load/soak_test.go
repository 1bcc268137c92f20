package load

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"x3/internal/admit"
	"x3/internal/dataset"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/obs"
	"x3/internal/serve"
	"x3/internal/xmltree"
)

// canonical renders a query answer in a store-independent normal form:
// rows keyed and ordered by their decoded string values, so two stores
// that assigned dictionary IDs in different orders (the incremental
// ladder vs the rebuilt oracle) compare equal exactly when they report
// the same groups with the same aggregates.
func canonical(resp *serve.Response) string {
	rows := make([]string, len(resp.Rows))
	for i, r := range resp.Rows {
		rows[i] = fmt.Sprintf("%s|%g|%d", strings.Join(r.Values, "\x1f"), r.Value, r.Count)
	}
	sort.Strings(rows)
	return resp.Cuboid + "\n" + strings.Join(rows, "\n")
}

// soakQueries is the fixed query set the soak's oracle precomputes; it
// spans the direct, roll-up and base plans plus constrained points.
var soakQueries = []serve.Request{
	{},
	{Cuboid: map[string]string{"$j": "rigid"}},
	{Cuboid: map[string]string{"$y": "rigid"}},
	{Cuboid: map[string]string{"$y": "rigid", "$j": "rigid"}},
	{Cuboid: map[string]string{"$j": "rigid"}, Where: map[string]string{"$j": "Journal 1"}},
	{Cuboid: map[string]string{"$au": "LND", "$m": "LND", "$y": "LND", "$j": "LND"}},
}

// buildOracle computes, for every append prefix k (the ladder store's
// only reachable states, since one goroutine appends sequentially), the
// canonical answer to every soak query: oracle[k][q]. Each prefix gets a
// fresh single-file store built over the base document plus appends[:k],
// so the oracle shares no incremental path with the store under test.
func buildOracle(t *testing.T, appends [][]byte) [][]string {
	t.Helper()
	lat, err := lattice.New(dataset.DBLPQuery())
	if err != nil {
		t.Fatal(err)
	}
	docs := []*xmltree.Document{dataset.DBLP(dataset.DefaultDBLPConfig(40, 7))}
	for _, body := range appends {
		doc, err := xmltree.Parse(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	oracle := make([][]string, len(appends)+1)
	ctx := context.Background()
	for k := range oracle {
		dicts := make([]*match.Dict, lat.NumAxes())
		for i := range dicts {
			dicts[i] = match.NewDict()
		}
		set := &match.Set{Lattice: lat, Dicts: dicts}
		for _, doc := range docs[:k+1] {
			part, err := match.EvaluateWith(doc, lat, dicts)
			if err != nil {
				t.Fatal(err)
			}
			set.Facts = append(set.Facts, part.Facts...)
		}
		store, err := serve.Build(filepath.Join(t.TempDir(), "oracle.x3ci"), lat, set,
			serve.Options{Views: 5, BlockCells: 16})
		if err != nil {
			t.Fatal(err)
		}
		answers := make([]string, len(soakQueries))
		for qi, q := range soakQueries {
			resp, err := store.ServeRequest(ctx, q)
			if err != nil {
				t.Fatalf("oracle prefix %d query %d: %v", k, qi, err)
			}
			answers[qi] = canonical(resp)
		}
		oracle[k] = answers
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return oracle
}

// TestSoakConcurrentQueriesAppendsCompaction is the race-run soak (wired
// into `make race`): a deterministic seeded schedule of mixed queries
// runs against a delta-ladder store while one goroutine appends
// documents through the WAL, auto-flush spills the memtable, and the
// background compactor folds deltas in. Every successful answer must be
// byte-equal (in canonical form) to the oracle's answer at SOME append
// prefix between the appends durably completed before the query was
// issued and those started by the time it returned; anything else must
// be an explicit shed/over-quota/degraded sentinel. Zero tolerance for
// silent wrong answers.
func TestSoakConcurrentQueriesAppendsCompaction(t *testing.T) {
	const (
		nAppends  = 8
		workers   = 4
		perWorker = 120
	)
	appends := make([][]byte, nAppends)
	for i := range appends {
		appends[i] = testWorkload.Append(i)
	}
	oracle := buildOracle(t, appends)
	// Distinct prefixes must answer at least one query differently, or
	// the oracle window check below would be vacuous.
	for k := 1; k <= nAppends; k++ {
		if oracle[k][0] == oracle[k-1][0] && oracle[k][len(soakQueries)-1] == oracle[k-1][len(soakQueries)-1] {
			t.Fatalf("oracle prefixes %d and %d indistinguishable; appends are not observable", k-1, k)
		}
	}

	// The live store: delta ladder with aggressive flush and compaction
	// thresholds so the soak exercises WAL append, memtable spill and
	// background compaction concurrently with the query load.
	doc := dataset.DBLP(dataset.DefaultDBLPConfig(40, 7))
	lat, err := lattice.New(dataset.DBLPQuery())
	if err != nil {
		t.Fatal(err)
	}
	dicts := make([]*match.Dict, lat.NumAxes())
	for i := range dicts {
		dicts[i] = match.NewDict()
	}
	set, err := match.EvaluateWith(doc, lat, dicts)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	store, err := serve.BuildDir(t.TempDir(), lat, set, serve.Options{
		Registry: reg, Views: 5, BlockCells: 16, FlushCells: 8, CompactAfter: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	compactCtx, stopCompact := context.WithCancel(context.Background())
	defer stopCompact()
	go store.CompactLoop(compactCtx)

	target := serveEdge(t, store, reg, admit.New(admit.Config{MaxInFlight: 32}))

	// started/done bracket each append: a query issued at done=d and
	// returning at started=s can observe any prefix in [d, s].
	var started, done atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := context.Background()
		for i := 0; i < nAppends; i++ {
			started.Store(int64(i + 1))
			res := target.Do(ctx, Op{Kind: OpAppend, Tenant: "writer", Seq: i, Body: appends[i]})
			if !res.OK() {
				errs <- fmt.Errorf("append %d: status %d code %s", i, res.Status, res.Code)
				return
			}
			done.Store(int64(i + 1))
		}
	}()

	var degraded, shed atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w))) // per-worker deterministic query order
			ctx := context.Background()
			for i := 0; i < perWorker; i++ {
				qi := rng.Intn(len(soakQueries))
				lo := done.Load()
				res := target.Do(ctx, Op{
					Kind: OpPoint, Tenant: fmt.Sprintf("reader%d", w),
					Request: soakQueries[qi],
				})
				hi := started.Load()
				switch {
				case res.OK() && res.Degraded:
					// Explicit degraded sentinel: the response says so.
					degraded.Add(1)
				case res.OK():
					got := canonical(res.Resp)
					matched := false
					for k := lo; k <= hi; k++ {
						if got == oracle[k][qi] {
							matched = true
							break
						}
					}
					if !matched {
						errs <- fmt.Errorf("worker %d query %d: silent wrong answer (no oracle prefix in [%d,%d] matches):\n%s",
							w, qi, lo, hi, got)
						return
					}
				case res.Status == http.StatusServiceUnavailable || res.Status == http.StatusTooManyRequests:
					// Explicit shed/over-quota sentinel.
					shed.Add(1)
				default:
					errs <- fmt.Errorf("worker %d query %d: unexplained status %d code %s", w, qi, res.Status, res.Code)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if done.Load() != nAppends {
		t.Fatalf("only %d/%d appends completed", done.Load(), nAppends)
	}
	// Settled state equals the full-prefix oracle exactly.
	checkSettled := func(when string) {
		t.Helper()
		for qi, q := range soakQueries {
			resp, err := store.ServeRequest(context.Background(), q)
			if err != nil {
				t.Fatalf("settled query %d (%s): %v", qi, when, err)
			}
			if got := canonical(resp); got != oracle[nAppends][qi] {
				t.Fatalf("settled query %d (%s) diverges from oracle:\ngot:\n%s\nwant:\n%s", qi, when, got, oracle[nAppends][qi])
			}
		}
	}
	checkSettled("after drain")
	// The maintenance machinery actually ran: WAL appends and at least
	// one memtable flush (8 appends * several cells each over threshold 8).
	if got := reg.Counter("serve.appends").Value(); got != nAppends {
		t.Fatalf("serve.appends = %d, want %d", got, nAppends)
	}
	if reg.Counter("serve.flush.runs").Value() == 0 {
		t.Fatal("auto-flush never ran; the soak did not exercise the memtable spill")
	}
	// The background compactor ran concurrently with the load (the flush
	// threshold signalled it); finish with an explicit flush + compact and
	// confirm compaction changed the layout, never the answers.
	if err := store.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := store.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("compact.runs").Value() == 0 {
		t.Fatal("no compaction ran during or after the soak")
	}
	checkSettled("after compaction")
	t.Logf("soak: %d queries, %d degraded, %d shed, %d appends, %d flushes, %d compactions",
		workers*perWorker, degraded.Load(), shed.Load(), nAppends,
		reg.Counter("serve.flush.runs").Value(), reg.Counter("compact.runs").Value())
}
