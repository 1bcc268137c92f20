package load

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"x3/internal/admit"
	"x3/internal/dataset"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/obs"
	"x3/internal/serve"
	"x3/internal/servehttp"
)

// testWorkload matches the dataset.DefaultDBLPConfig(40, 7) domain.
var testWorkload = DBLPWorkload{Journals: 50, Authors: 2000, YearFrom: 1990, YearTo: 2005}

// buildStore materializes a small DBLP cube (single-file store).
func buildStore(t *testing.T, reg *obs.Registry) *serve.Store {
	t.Helper()
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
	store, err := serve.Build(filepath.Join(t.TempDir(), "cube.x3ci"), lat, set,
		serve.Options{Registry: reg, Views: 5, BlockCells: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// serveEdge fronts a backend with the servehttp edge on a local listener
// and returns a target that drives it and decodes its answers.
func serveEdge(t *testing.T, b servehttp.Backend, reg *obs.Registry, ctrl *admit.Controller) *HTTPTarget {
	t.Helper()
	srv := httptest.NewServer(servehttp.New(b, reg, servehttp.Options{Admission: ctrl}))
	t.Cleanup(srv.Close)
	return &HTTPTarget{BaseURL: srv.URL, CaptureBody: true}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("point=0.6, slice=0.3,rollup=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if m != (Mix{Point: 0.6, Slice: 0.3, Rollup: 0.1}) {
		t.Fatalf("parsed %+v", m)
	}
	if _, err := ParseMix("point=-1"); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := ParseMix("warp=1"); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := ParseMix(""); err == nil {
		t.Error("empty mix accepted")
	}
	if got := (Mix{Point: 0.5, Append: 0.25}).String(); got != "point=0.5,append=0.25" {
		t.Errorf("String() = %q", got)
	}
}

// TestScheduleDeterministic is the reproducibility contract: same seed,
// identical operation sequence; different seed, a different one.
func TestScheduleDeterministic(t *testing.T) {
	cfg := Config{
		Seed: 17, Rate: 500, Duration: time.Second, Warmup: 100 * time.Millisecond,
		Mix:     Mix{Point: 0.5, Slice: 0.3, Rollup: 0.1, Append: 0.1},
		Tenants: 4, HotTenantShare: 0.4, Workload: testWorkload,
	}
	a, b := Schedule(cfg), Schedule(cfg)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	cfg.Seed = 18
	c := Schedule(cfg)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	// Arrival times are sorted and inside [0, warmup+duration); warmup
	// ops precede the warmup boundary.
	var appends, warmups int
	for i, op := range a {
		if i > 0 && op.At < a[i-1].At {
			t.Fatalf("op %d arrives before its predecessor", i)
		}
		if op.At < 0 || op.At >= cfg.Warmup+cfg.Duration {
			t.Fatalf("op %d at %v outside schedule window", i, op.At)
		}
		if op.Warmup != (op.At < cfg.Warmup) {
			t.Fatalf("op %d warmup flag inconsistent with arrival %v", i, op.At)
		}
		if op.Warmup {
			warmups++
		}
		if op.Kind == OpAppend {
			if op.Seq != appends {
				t.Fatalf("append seq %d, want %d", op.Seq, appends)
			}
			appends++
			if len(op.Body) == 0 {
				t.Fatal("append without body")
			}
		} else if op.Request.Cuboid == nil {
			t.Fatalf("query op %d without request", i)
		}
	}
	if warmups == 0 || appends == 0 {
		t.Fatalf("schedule has %d warmup and %d append ops; want both > 0", warmups, appends)
	}
	// ~500 ops/s for 1.1s: the count concentrates near 550.
	if len(a) < 350 || len(a) > 800 {
		t.Fatalf("schedule has %d ops for rate 500 over 1.1s", len(a))
	}
}

// TestHotTenantSkew checks the tenant draw: tenant0 receives about its
// configured share, the rest split the remainder roughly evenly.
func TestHotTenantSkew(t *testing.T) {
	cfg := Config{
		Seed: 3, Rate: 4000, Duration: 2 * time.Second,
		Mix: Mix{Point: 1}, Tenants: 5, HotTenantShare: 0.4, Workload: testWorkload,
	}
	ops := Schedule(cfg)
	counts := map[string]int{}
	for _, op := range ops {
		counts[op.Tenant]++
	}
	hot := float64(counts["tenant0"]) / float64(len(ops))
	if hot < 0.35 || hot > 0.45 {
		t.Fatalf("hot tenant share %.3f, want ~0.4", hot)
	}
	for i := 1; i < 5; i++ {
		share := float64(counts[cfg.TenantLabels()[i]]) / float64(len(ops))
		if share < 0.10 || share > 0.20 {
			t.Fatalf("tenant%d share %.3f, want ~0.15", i, share)
		}
	}
}

// TestRunAgainstStore fires a short schedule at an in-process store,
// through the HTTP edge, and checks the report: everything in-quota
// completes OK, latencies land in the histograms, and per-tenant rows
// add up to the total.
func TestRunAgainstStore(t *testing.T) {
	reg := obs.New()
	store := buildStore(t, reg)
	target := serveEdge(t, store, reg, admit.New(admit.Config{MaxInFlight: 64}))
	cfg := Config{
		Seed: 5, Rate: 400, Duration: 500 * time.Millisecond, Warmup: 100 * time.Millisecond,
		Mix: Mix{Point: 0.6, Slice: 0.3, Rollup: 0.1}, Tenants: 3, Workload: testWorkload,
	}
	ops := Schedule(cfg)
	rep := Run(context.Background(), target, cfg, ops)
	var measured int64
	for _, op := range ops {
		if !op.Warmup {
			measured++
		}
	}
	if rep.Total.Sent != measured {
		t.Fatalf("report sent %d, schedule has %d measured ops", rep.Total.Sent, measured)
	}
	if rep.Total.OK != rep.Total.Sent || rep.Total.Failed != 0 {
		t.Fatalf("unquota'd in-process run not all OK: %+v", rep.Total)
	}
	if rep.Total.Latency.Count != rep.Total.OK || rep.Total.Latency.P99 <= 0 {
		t.Fatalf("latency histogram %+v inconsistent with %d OKs", rep.Total.Latency, rep.Total.OK)
	}
	var perTenant int64
	for _, tr := range rep.Tenants {
		perTenant += tr.Sent
	}
	if perTenant != rep.Total.Sent {
		t.Fatalf("per-tenant sent %d != total %d", perTenant, rep.Total.Sent)
	}
	if rep.Throughput <= 0 || rep.MeasuredSeconds <= 0 {
		t.Fatalf("throughput %.1f over %.2fs", rep.Throughput, rep.MeasuredSeconds)
	}
	// Merging every tenant's histogram reproduces the total's count.
	merged := rep.MergedLatency(cfg.TenantLabels()...)
	if merged.Count != rep.Total.Latency.Count {
		t.Fatalf("merged tenant latency count %d != total %d", merged.Count, rep.Total.Latency.Count)
	}
}

// TestHTTPTargetQuotaRefusals drives one tenant past a tight quota
// under a frozen clock and checks the edge's 429 and Retry-After reach
// the report.
func TestHTTPTargetQuotaRefusals(t *testing.T) {
	reg := obs.New()
	store := buildStore(t, reg)
	now := time.Unix(9000, 0)
	target := serveEdge(t, store, reg, admit.New(admit.Config{
		Rate: 1, Burst: 2, Now: func() time.Time { return now },
	}))
	op := Op{Kind: OpPoint, Tenant: "tenant0", Request: testWorkload.Query(OpPoint, 1)}
	okCount, quotaCount := 0, 0
	for i := 0; i < 5; i++ {
		res := target.Do(context.Background(), op)
		switch res.Status {
		case http.StatusOK:
			okCount++
		case http.StatusTooManyRequests:
			quotaCount++
			if res.Code != "over_quota" || res.RetryAfter <= 0 {
				t.Fatalf("429 result %+v missing code/hint", res)
			}
		default:
			t.Fatalf("unexpected status %d", res.Status)
		}
	}
	if okCount != 2 || quotaCount != 3 {
		t.Fatalf("burst 2 frozen clock: %d OK / %d over-quota, want 2/3", okCount, quotaCount)
	}
	// Appends classify as Background for admission.
	if classFor(OpAppend) != admit.Background || classFor(OpSlice) != admit.Interactive {
		t.Fatal("classFor mis-mapped op kinds")
	}
}

// TestHTTPTarget runs the same workload over a real HTTP edge and checks
// the statuses, headers and body decoding.
func TestHTTPTarget(t *testing.T) {
	reg := obs.New()
	store := buildStore(t, reg)
	now := time.Unix(100, 0)
	target := serveEdge(t, store, reg, admit.New(admit.Config{
		MaxInFlight: 16, Rate: 1, Burst: 1, Now: func() time.Time { return now },
	}))

	res := target.Do(context.Background(), Op{Kind: OpRollup, Tenant: "a", Request: testWorkload.Query(OpRollup, 0)})
	if !res.OK() || res.Resp == nil || len(res.Resp.Rows) == 0 {
		t.Fatalf("rollup over HTTP: %+v", res)
	}
	// Same tenant again with a frozen clock: the bucket is drained.
	res = target.Do(context.Background(), Op{Kind: OpPoint, Tenant: "a", Request: testWorkload.Query(OpPoint, 0)})
	if res.Status != http.StatusTooManyRequests || res.Code != "over_quota" || res.RetryAfter < time.Second {
		t.Fatalf("drained tenant over HTTP: %+v", res)
	}
	// A fresh tenant's append rides the Background class; the single-file
	// store refuses it as a 400 — the status mapping, not the admission,
	// is under test.
	res = target.Do(context.Background(), Op{Kind: OpAppend, Tenant: "b", Body: testWorkload.Append(0)})
	if res.Status != http.StatusBadRequest || res.Code != "bad_request" {
		t.Fatalf("append to single-file store over HTTP: %+v", res)
	}
}
