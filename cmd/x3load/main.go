// Command x3load is the production load harness: an open-loop workload
// generator that drives the X³ serving layer over HTTP — a running
// x3serve, or a freshly built delta-ladder store served in-process
// through the same HTTP edge on a loopback listener — with a
// deterministic seeded schedule of point, slice and roll-up queries plus
// WAL appends, Zipf-skewed hot keys, and tenant labels that exercise the
// per-tenant admission control.
//
// Usage:
//
//	x3load -rate 600 -duration 5s -mix point=0.6,slice=0.3,rollup=0.1
//	x3load -rate 1200 -tenants 8 -hot-share 0.4 -tenant-rate 150
//	x3load -url http://127.0.0.1:8733 -rate 300 -duration 10s
//	x3load -url http://127.0.0.1:8733 -rate 60 -backoff429 3 -backoff-cap 100ms
//
// A run prints a JSON Report (throughput, per-tenant outcome counts, HDR
// latency quantiles) to stdout, or to the -metrics file.
// With -backoff429 N the HTTP target retries 429s after the
// server's Retry-After hint (jittered), counting the absorbed pressure
// in load.backoff and per-tenant backoffs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"time"

	"x3/internal/admit"
	"x3/internal/dataset"
	"x3/internal/lattice"
	"x3/internal/load"
	"x3/internal/match"
	"x3/internal/obs"
	"x3/internal/serve"
	"x3/internal/servehttp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("x3load: ")
	var (
		rate       = flag.Float64("rate", 400, "offered arrival rate in ops/s")
		duration   = flag.Duration("duration", 3*time.Second, "measurement phase length")
		warmup     = flag.Duration("warmup", 500*time.Millisecond, "warm-up phase (executed, not recorded)")
		mixSpec    = flag.String("mix", "point=0.6,slice=0.3,rollup=0.1", "operation mix, kind=weight comma list")
		seed       = flag.Int64("seed", 1, "schedule seed (same seed, same schedule)")
		tenants    = flag.Int("tenants", 8, "tenant population size")
		hotShare   = flag.Float64("hot-share", 0.4, "fraction of arrivals from tenant0 (the over-quota tenant)")
		zipfS      = flag.Float64("zipf-s", 1.2, "hot-key Zipf exponent (> 1)")
		scale      = flag.Int("scale", 200, "in-process dataset size in DBLP articles")
		url        = flag.String("url", "", "drive a running x3serve at this base URL instead of in-process")
		backoff429 = flag.Int("backoff429", 0, "retry 429s up to N times, honouring Retry-After with jitter (0 = report refusals)")
		backoffCap = flag.Duration("backoff-cap", 250*time.Millisecond, "clamp each 429 backoff sleep")

		maxInFlight = flag.Int("max-inflight", 256, "in-process admission: max concurrent requests (0 disables)")
		bgMax       = flag.Int("background-max", 0, "in-process admission: background sub-limit (0 = half)")
		tenantRate  = flag.Float64("tenant-rate", 0, "in-process admission: per-tenant quota in req/s (0 disables)")
		tenantBurst = flag.Float64("tenant-burst", 0, "in-process admission: per-tenant burst (0 = one second of quota)")

		metrics = flag.String("metrics", "", "write the report JSON here (default stdout)")
	)
	flag.Parse()

	mix, err := load.ParseMix(*mixSpec)
	if err != nil {
		log.Fatal(err)
	}
	cfg := load.Config{
		Seed: *seed, Rate: *rate, Duration: *duration, Warmup: *warmup,
		Mix: mix, Tenants: *tenants, HotTenantShare: *hotShare, ZipfS: *zipfS,
		Workload: load.DBLPWorkload{Journals: 50, Authors: 2000, YearFrom: 1990, YearTo: 2005},
	}

	target := &load.HTTPTarget{
		BaseURL: *url, MaxBackoffs: *backoff429, BackoffCap: *backoffCap,
		Registry: obs.New(),
	}
	if *url == "" {
		reg := obs.New()
		store, cleanup, err := buildLadderStore(*scale, *seed, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer cleanup()
		var ctrl *admit.Controller
		if *maxInFlight > 0 || *tenantRate > 0 {
			ctrl = admit.New(admit.Config{
				MaxInFlight: *maxInFlight, BackgroundMax: *bgMax,
				Rate: *tenantRate, Burst: *tenantBurst, Registry: reg,
			})
		}
		// The store serves through x3serve's own HTTP edge on a loopback
		// listener, so admission and status mapping are the edge's.
		srv := httptest.NewServer(servehttp.New(store, reg, servehttp.Options{Admission: ctrl}))
		defer srv.Close()
		target.BaseURL = srv.URL
	}

	ops := load.Schedule(cfg)
	fmt.Fprintf(os.Stderr, "x3load: firing %d ops at %.0f/s (mix %s, %d tenants)\n",
		len(ops), cfg.Rate, cfg.Mix, cfg.Tenants)
	rep := load.Run(context.Background(), target, cfg, ops)
	if err := writeJSON(*metrics, rep); err != nil {
		log.Fatal(err)
	}
}

// buildLadderStore materializes a synthetic DBLP cube as a delta-ladder
// store in a temp directory, so the append path is live.
func buildLadderStore(scale int, seed int64, reg *obs.Registry) (*serve.Store, func(), error) {
	doc := dataset.DBLP(dataset.DefaultDBLPConfig(scale, seed))
	lat, err := lattice.New(dataset.DBLPQuery())
	if err != nil {
		return nil, nil, err
	}
	set, err := match.Evaluate(doc, lat)
	if err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp("", "x3load")
	if err != nil {
		return nil, nil, err
	}
	store, err := serve.BuildDir(dir, lat, set, serve.Options{Registry: reg, Views: 8})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	go store.CompactLoop(ctx)
	cleanup := func() {
		cancel()
		store.Close()
		os.RemoveAll(dir)
	}
	return store, cleanup, nil
}

// writeJSON writes v as indented JSON to path, or stdout when empty.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
