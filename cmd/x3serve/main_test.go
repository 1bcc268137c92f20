package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
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

// startTestServer builds a small DBLP store and serves it over httptest.
func startTestServer(t *testing.T, views int) (*httptest.Server, *serve.Store, *obs.Registry) {
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
	reg := obs.New()
	store, err := serve.Build(filepath.Join(t.TempDir(), "cube.x3ci"), lat, set,
		serve.Options{Registry: reg, Views: views, BlockCells: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv := httptest.NewServer(servehttp.New(store, reg, servehttp.Options{
		Admission:      admit.New(admit.Config{MaxInFlight: 64, Registry: reg}),
		RequestTimeout: 30 * time.Second,
	}))
	t.Cleanup(srv.Close)
	return srv, store, reg
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// refreshBody renders a small DBLP delta document with n fresh articles.
func refreshBody(tag string, n int) string {
	var sb strings.Builder
	sb.WriteString("<dblp>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<article key="journals/%s/%d">`, tag, i)
		fmt.Fprintf(&sb, "<author>Author %s-%d</author>", tag, i)
		sb.WriteString("<title>t</title><journal>Journal 1</journal><year>2006</year><month>jan</month>")
		sb.WriteString("</article>")
	}
	sb.WriteString("</dblp>")
	return sb.String()
}

// bottomCount queries the lattice bottom (all axes LND) and returns the
// total fact count it reports.
func bottomCount(t *testing.T, url string) int64 {
	t.Helper()
	resp, b := postJSON(t, url+"/query", `{"cuboid":{"$au":"LND","$m":"LND","$y":"LND","$j":"LND"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bottom query: HTTP %d: %s", resp.StatusCode, b)
	}
	var out serve.Response
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range out.Rows {
		total += r.Count
	}
	return total
}

// TestServerConcurrentQueriesAndRefresh is the HTTP-level race workload:
// several goroutines fire mixed point/slice queries while refreshes fold
// new documents into a delta-ladder store through the same handler. Run
// under `make race`.
func TestServerConcurrentQueriesAndRefresh(t *testing.T) {
	lat, set := dblpInputs(t)
	reg := obs.New()
	store, err := serve.BuildDir(t.TempDir(), lat, set, serve.Options{Registry: reg, Views: 5, BlockCells: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv := serveStore(t, store, reg)
	base := bottomCount(t, srv.URL)
	if base <= 0 {
		t.Fatalf("empty store (bottom count %d)", base)
	}

	queries := []string{
		`{}`,
		`{"cuboid":{"$j":"rigid"}}`,
		`{"cuboid":{"$y":"rigid","$j":"rigid"}}`,
		`{"cuboid":{"$au":"rigid"},"where":{"$au":"Author 1"}}`,
		`{"cuboid":{"$y":"rigid"},"where":{"$y":"1999"}}`,
		`{"cuboid":{"$au":"LND","$m":"LND","$y":"LND","$j":"LND"}}`,
	}
	const (
		queriers  = 6
		perWorker = 30
		refreshes = 4
		deltaSize = 5
	)
	var wg sync.WaitGroup
	errs := make(chan error, queriers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < refreshes; i++ {
			resp, err := http.Post(srv.URL+"/refresh", "application/xml",
				strings.NewReader(refreshBody(fmt.Sprintf("r%d", i), deltaSize)))
			if err != nil {
				errs <- err
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("refresh %d: HTTP %d: %s", i, resp.StatusCode, b)
				return
			}
			var out map[string]int64
			if err := json.Unmarshal(b, &out); err != nil {
				errs <- fmt.Errorf("refresh %d: %w (%s)", i, err, b)
				return
			}
			if out["added"] != deltaSize {
				errs <- fmt.Errorf("refresh %d added %d facts, want %d", i, out["added"], deltaSize)
				return
			}
		}
	}()

	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := queries[(w+i)%len(queries)]
				resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(q))
				if err != nil {
					errs <- err
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("query %s: HTTP %d: %s", q, resp.StatusCode, b)
					return
				}
				var out serve.Response
				if err := json.Unmarshal(b, &out); err != nil {
					errs <- fmt.Errorf("query %s: %w (%s)", q, err, b)
					return
				}
				// A torn swap would show as a bottom total below the
				// pre-refresh baseline.
				if strings.Contains(q, `"$au":"LND","$m":"LND"`) || q == `{}` {
					var total int64
					for _, r := range out.Rows {
						total += r.Count
					}
					if total < base {
						errs <- fmt.Errorf("torn answer: bottom total %d below baseline %d", total, base)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := reg.Counter("serve.refresh.runs").Value(); got != refreshes {
		t.Fatalf("recorded %d refreshes, want %d", got, refreshes)
	}
	if got, want := bottomCount(t, srv.URL), base+refreshes*deltaSize; got != want {
		t.Fatalf("bottom count after refreshes = %d, want %d", got, want)
	}
}

func TestServerEndpoints(t *testing.T) {
	srv, store, _ := startTestServer(t, 0)

	// /cuboids reports every lattice point with its materialization state.
	resp, err := http.Get(srv.URL + "/cuboids")
	if err != nil {
		t.Fatal(err)
	}
	var cuboids []serve.CuboidStatus
	if err := json.NewDecoder(resp.Body).Decode(&cuboids); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(cuboids) != store.Lattice().Size() {
		t.Fatalf("/cuboids listed %d rows, lattice has %d points", len(cuboids), store.Lattice().Size())
	}
	mat := 0
	for _, c := range cuboids {
		if c.Materialized {
			mat++
		}
	}
	if mat != len(store.Materialized()) {
		t.Fatalf("/cuboids marked %d materialized, store has %d", mat, len(store.Materialized()))
	}

	// /metrics returns the registry as JSON.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(metrics) == 0 {
		t.Error("/metrics empty after a build")
	}

	// Error paths: bad JSON, unknown axis, bad XML.
	if resp, b := postJSON(t, srv.URL+"/query", `{"cuboid":`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: HTTP %d: %s", resp.StatusCode, b)
	}
	if resp, b := postJSON(t, srv.URL+"/query", `{"cuboid":{"$nope":"LND"}}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown axis: HTTP %d: %s", resp.StatusCode, b)
	}
	if resp, b := postJSON(t, srv.URL+"/refresh", `<dblp`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad XML refresh: HTTP %d: %s", resp.StatusCode, b)
	}

	// An unseen where-value answers an empty row set, not an error.
	resp2, b := postJSON(t, srv.URL+"/query", `{"cuboid":{"$j":"rigid"},"where":{"$j":"No Such Journal"}}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("unseen value: HTTP %d: %s", resp2.StatusCode, b)
	}
	var out serve.Response
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 0 {
		t.Errorf("unseen value returned %d rows", len(out.Rows))
	}
}

// TestStructuredErrorsAndStatusSplit pins the wire error contract:
// {"error":..., "code":...} with 4xx for the caller's mistakes and 5xx
// for the server's.
func TestStructuredErrorsAndStatusSplit(t *testing.T) {
	srv, _, _ := startTestServer(t, 0)
	for _, tc := range []struct {
		body   string
		status int
		code   string
	}{
		{`{"cuboid":`, http.StatusBadRequest, "bad_request"},
		{`{"cuboid":{"$nope":"LND"}}`, http.StatusBadRequest, "bad_request"},
		{`{"cuboid":{"$j":"warp"}}`, http.StatusBadRequest, "bad_request"},
	} {
		resp, b := postJSON(t, srv.URL+"/query", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: HTTP %d, want %d", tc.body, resp.StatusCode, tc.status)
		}
		var e map[string]string
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatalf("%s: unstructured error body %q", tc.body, b)
		}
		if e["code"] != tc.code || e["error"] == "" {
			t.Errorf("%s: error body %v, want code %q", tc.body, e, tc.code)
		}
	}
}

// TestRequestDeadline pins the acceptance criterion: a request whose
// deadline has passed returns promptly with 504, not a hung connection.
func TestRequestDeadline(t *testing.T) {
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
	store, err := serve.Build(filepath.Join(t.TempDir(), "cube.x3ci"), lat, set,
		serve.Options{Registry: reg, BlockCells: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv := httptest.NewServer(servehttp.New(store, reg, servehttp.Options{RequestTimeout: time.Nanosecond}))
	t.Cleanup(srv.Close)

	done := make(chan struct{})
	var status int
	var body []byte
	go func() {
		defer close(done)
		resp, b := postJSON(t, srv.URL+"/query", `{}`)
		status, body = resp.StatusCode, b
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("expired-deadline request did not return promptly")
	}
	if status != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: HTTP %d (%s), want 504", status, body)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["code"] != "deadline" {
		t.Fatalf("expired deadline: body %s, want code \"deadline\"", body)
	}
}

// The load-shedding and panic-recovery middleware tests moved with the
// middleware itself into internal/servehttp.
