package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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

// dblpInputs evaluates the test DBLP document against fresh dictionaries
// — the same inputs both a fresh build and a recovery receive.
func dblpInputs(t *testing.T) (*lattice.Lattice, *match.Set) {
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
	return lat, set
}

func serveStore(t *testing.T, store *serve.Store, reg *obs.Registry) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(servehttp.New(store, reg, servehttp.Options{
		Admission:      admit.New(admit.Config{MaxInFlight: 64, Registry: reg}),
		RequestTimeout: 30 * time.Second,
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestServerAppendAndGenerations drives the delta-ladder store over the
// wire: /append makes documents durable and immediately queryable,
// /generations reports the ladder shape, and a store recovered from the
// same directory serves the appended facts.
func TestServerAppendAndGenerations(t *testing.T) {
	lat, set := dblpInputs(t)
	dir := t.TempDir()
	reg := obs.New()
	opt := serve.Options{Registry: reg, Views: 5, BlockCells: 16, FlushCells: -1, CompactAfter: -1}
	store, err := serve.BuildDir(dir, lat, set, opt)
	if err != nil {
		t.Fatal(err)
	}
	srv := serveStore(t, store, reg)
	base := bottomCount(t, srv.URL)

	const deltaSize = 5
	resp, err := http.Post(srv.URL+"/append", "application/xml",
		strings.NewReader(refreshBody("a0", deltaSize)))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/append: HTTP %d: %s", resp.StatusCode, b)
	}
	var out map[string]int64
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("/append: %v (%s)", err, b)
	}
	if out["added"] != deltaSize {
		t.Fatalf("/append added %d facts, want %d", out["added"], deltaSize)
	}
	if out["mem_cells"] == 0 {
		t.Fatal("/append left an empty memtable with auto-flush disabled")
	}
	if got, want := bottomCount(t, srv.URL), base+deltaSize; got != want {
		t.Fatalf("bottom count after append = %d, want %d", got, want)
	}

	// /generations reflects a flush.
	if err := store.Flush(nil); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/generations")
	if err != nil {
		t.Fatal(err)
	}
	var gens struct {
		Dir      string `json:"dir"`
		Deltas   int    `json:"deltas"`
		MemCells int64  `json:"mem_cells"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&gens); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if gens.Dir != dir || gens.Deltas != 1 || gens.MemCells != 0 {
		t.Fatalf("/generations = %+v, want dir %s, 1 delta, empty memtable", gens, dir)
	}

	// Malformed append XML is the caller's fault.
	if resp, b := postJSON(t, srv.URL+"/append", `<dblp`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad XML append: HTTP %d: %s", resp.StatusCode, b)
	}

	// Recovery: reopen the directory the way `x3serve -store` does and
	// serve the same totals.
	srv.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	lat2, set2 := dblpInputs(t)
	store2, err := serve.OpenDir(dir, lat2, set2, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store2.Close() })
	srv2 := serveStore(t, store2, reg)
	if got, want := bottomCount(t, srv2.URL), base+deltaSize; got != want {
		t.Fatalf("bottom count after recovery = %d, want %d", got, want)
	}
}

// TestServerAppendWithoutLadder pins the write endpoints' contract on a
// read-only single-file store: /append and /refresh answer a clean 400,
// not a panic or a silent rewrite, and the served totals stay put.
func TestServerAppendWithoutLadder(t *testing.T) {
	srv, _, _ := startTestServer(t, 0)
	base := bottomCount(t, srv.URL)
	for _, endpoint := range []string{"/append", "/refresh"} {
		resp, b := postJSON(t, srv.URL+endpoint, refreshBody("x", 2))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s on a single-file store: HTTP %d: %s", endpoint, resp.StatusCode, b)
		}
		var e map[string]string
		if err := json.Unmarshal(b, &e); err != nil || e["code"] != "bad_request" {
			t.Fatalf("%s error body %s, want code \"bad_request\"", endpoint, b)
		}
	}
	if got := bottomCount(t, srv.URL); got != base {
		t.Fatalf("bottom count moved from %d to %d on a read-only store", base, got)
	}
}
