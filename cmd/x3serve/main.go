// Command x3serve materializes an X³ cube and serves point, slice and
// roll-up queries over HTTP from the indexed cell file, re-aggregating
// safe roll-ups from the cheapest materialized ancestor and falling back
// to base facts where summarizability does not hold. The cube is
// computed with COUNTER, and the summarizability properties that decide
// which roll-ups are safe are measured from the facts and kept exact
// under every append; no flag can assume them.
//
// Usage:
//
//	x3serve -xml dblp.xml -queryfile q.xq -addr :8733
//	x3serve -xml dblp.xml -queryfile q.xq -views 5 -cells cube.x3ci
//	x3serve -xml dblp.xml -queryfile q.xq -store /var/lib/x3/dblp
//	x3serve -xml dblp.xml -queryfile q.xq -store /var/lib/x3/dblp -shards 4 -replicas 2
//	x3serve -xml dblp.xml -queryfile q.xq -space-budget 65536 -cache-bytes 1048576
//
// With -store DIR the cube lives as a delta-ladder store: a manifest of
// generation cell files plus a write-ahead log. Appends are fsynced to
// the log before they are served, flushed delta generations accumulate,
// and a background compactor merges them back into a single base file.
// If DIR already holds a manifest the store is recovered from it (the
// WAL replay rebuilds anything not yet flushed); otherwise it is built
// fresh from the -xml input. Without -store the cube is one read-only
// cell file.
//
// With -shards N (N > 1) the facts are partitioned by key hash into N
// replicated delta-ladder stores under DIR and every query is
// scatter-gathered across them with per-shard deadlines, failover and
// hedged requests. When every replica of a shard is unreachable the
// answer is marked partial and names the missing key range — it is
// never passed off as a total.
//
// Endpoints:
//
//	POST /query       {"cuboid":{"$a":"LND"},"where":{"$j":"tods"}} → rows
//	POST /refresh     XML document body → append, flush and compact
//	                  (ladder stores only)
//	POST /append      XML document body → WAL-durable incremental append
//	                  (ladder stores only)
//	GET  /generations delta-ladder shape: outstanding deltas, memtable cells
//	GET  /cuboids     per-cuboid materialization state, query counts, and
//	                  (under -space-budget) the cost model's decisions
//	GET  /metrics     serve.* counters, cache hit rates, HDR latency histograms
//	GET  /topology    sharded mode: per-shard key ranges and replica health
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"x3/internal/admit"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/obs"
	"x3/internal/serve"
	"x3/internal/servehttp"
	"x3/internal/shard"
	"x3/internal/xmltree"
	"x3/internal/xq"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("x3serve: ")
	var (
		xmlPath   = flag.String("xml", "", "XML input file")
		queryText = flag.String("query", "", "X³ query text")
		queryFile = flag.String("queryfile", "", "file containing the X³ query")
		views     = flag.Int("views", 0, "materialize only the top-k cuboids by greedy view selection (0 = all)")
		budget    = flag.Int64("space-budget", 0, "materialize only the cuboids the cost model picks within this many encoded bytes (0 = no budget; overrides -views)")
		cellsPath = flag.String("cells", "", "indexed cell file path (default: a temp file)")
		storeDir  = flag.String("store", "", "delta-ladder store directory (existing manifest → recover, else build); enables /append")

		shards        = flag.Int("shards", 1, "partition facts across this many shards, each a replicated delta-ladder store (requires -store; 1 = single node)")
		replicas      = flag.Int("replicas", 2, "replicas per shard when -shards > 1")
		shardDeadline = flag.Duration("shard-deadline", 0, "per-shard scatter deadline (0 = default)")
		hedgeAfter    = flag.Duration("hedge-after", 0, "fixed hedged-request delay per shard (0 = adapt from the shard's observed p99)")
		probeEvery    = flag.Int("probe-every", 0, "probe down replicas for re-admission every Nth query to their shard (0 = default, negative = never)")
		downAfter     = flag.Int("down-after", 0, "consecutive replica failures before failover stops trying it first (0 = default)")

		flushN   = flag.Int("flush-cells", 0, "memtable cells that trigger an automatic flush (0 = default, negative = manual only)")
		compactN = flag.Int("compact-after", 0, "outstanding deltas that trigger background compaction (0 = default, negative = manual only)")
		addr     = flag.String("addr", ":8733", "HTTP listen address")
		cacheB   = flag.Int64("cache-bytes", 0, "LRU block cache budget in bytes of memory held by decoded blocks; cuboid reads larger than it bypass the cache (0 = default 1 MiB, negative disables)")

		maxInFlight     = flag.Int("max-inflight", 64, "max concurrently executing requests; excess load is shed with 503 (0 disables)")
		backgroundMax   = flag.Int("background-max", 0, "max concurrently executing background requests (/append, /refresh); 0 = half of -max-inflight, negative = uncapped")
		tenantRate      = flag.Float64("tenant-rate", 0, "per-tenant request quota in req/s (X3-Tenant header); over-quota tenants get 429 + Retry-After (0 disables quotas)")
		tenantBurst     = flag.Float64("tenant-burst", 0, "per-tenant token-bucket burst capacity (0 = one second of -tenant-rate)")
		requestTimeout  = flag.Duration("request-timeout", 30*time.Second, "per-request deadline; expired requests are cancelled (0 disables)")
		readTimeout     = flag.Duration("read-timeout", 2*time.Minute, "http.Server read timeout")
		writeTimeout    = flag.Duration("write-timeout", 2*time.Minute, "http.Server write timeout")
		shutdownTimeout = flag.Duration("shutdown-timeout", 10*time.Second, "graceful-shutdown drain deadline on SIGINT/SIGTERM")
	)
	flag.Parse()

	reg := obs.New()
	lat, set, err := buildInputs(*xmlPath, *queryText, *queryFile)
	if err != nil {
		log.Fatal(err)
	}
	opt := serve.Options{
		Views:        *views,
		SpaceBudget:  *budget,
		CacheBytes:   *cacheB,
		Registry:     reg,
		FlushCells:   *flushN,
		CompactAfter: *compactN,
	}
	var store backend
	if *shards > 1 {
		// Sharded mode: facts are partitioned by key hash across N
		// replicated delta-ladder stores under -store DIR, and the
		// coordinator scatter-gathers every query with failover and
		// hedging. An existing topology on disk is recovered.
		if *storeDir == "" {
			log.Fatal("-shards > 1 needs -store DIR (each shard is a replicated delta-ladder store)")
		}
		sopt := shard.Options{
			Shards: *shards, Replicas: *replicas,
			ShardDeadline: *shardDeadline, HedgeAfter: *hedgeAfter,
			ProbeEvery: *probeEvery, DownAfter: *downAfter,
			Registry: reg, Store: opt,
		}
		var coord *shard.Coordinator
		if shard.IsBuilt(*storeDir) {
			coord, err = shard.Open(*storeDir, lat, set, sopt)
			if err == nil {
				fmt.Fprintf(os.Stderr, "x3serve: recovered %d-shard topology at %s\n", coord.Shards(), *storeDir)
			}
		} else {
			coord, err = shard.New(*storeDir, lat, set, sopt)
		}
		store = coord
	} else if *storeDir != "" {
		// Delta-ladder mode: a manifest already in the directory means a
		// previous run's state — recover it (manifest + WAL replay) rather
		// than rebuild.
		if _, serr := os.Stat(filepath.Join(*storeDir, "MANIFEST.json")); serr == nil {
			var ls *serve.Store
			ls, err = serve.OpenDir(*storeDir, lat, set, opt)
			if err == nil {
				fmt.Fprintf(os.Stderr, "x3serve: recovered store %s (next WAL seq %d)\n", *storeDir, ls.NextSeq())
			}
			store = ls
		} else {
			store, err = serve.BuildDir(*storeDir, lat, set, opt)
		}
	} else {
		path := *cellsPath
		if path == "" {
			dir, err := os.MkdirTemp("", "x3serve")
			if err != nil {
				log.Fatal(err)
			}
			defer os.RemoveAll(dir)
			path = filepath.Join(dir, "cube.x3ci")
		}
		store, err = serve.Build(path, lat, set, opt)
	}
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	// The background compactor is a no-op for single-file stores; for
	// ladder stores each flush that crosses the threshold signals it.
	compactCtx, stopCompact := context.WithCancel(context.Background())
	defer stopCompact()
	go store.CompactLoop(compactCtx)
	for _, mc := range store.Materialized() {
		fmt.Fprintf(os.Stderr, "x3serve: materialized %-50s %8d cells\n", mc.Label, mc.Cells)
	}
	fmt.Fprintf(os.Stderr, "x3serve: %d facts, %d/%d cuboids materialized, listening on %s\n",
		store.NumFacts(), len(store.Materialized()), lat.Size(), *addr)

	// Admission control subsumes the flat -max-inflight shedding: the
	// controller sheds saturation with 503 exactly as before, and layers
	// per-tenant 429 quotas plus the background sub-limit on top.
	var ctrl *admit.Controller
	if *maxInFlight > 0 || *tenantRate > 0 {
		ctrl = admit.New(admit.Config{
			MaxInFlight:   *maxInFlight,
			BackgroundMax: *backgroundMax,
			Rate:          *tenantRate,
			Burst:         *tenantBurst,
			Registry:      reg,
		})
	}
	srv := &http.Server{
		Addr: *addr,
		Handler: servehttp.New(store, reg, servehttp.Options{
			Admission:      ctrl,
			RequestTimeout: *requestTimeout,
		}),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatal(err)
	case s := <-sig:
		// Graceful shutdown: stop accepting, drain in-flight requests up
		// to the deadline, then exit. The store closes via the defer.
		fmt.Fprintf(os.Stderr, "x3serve: %v — draining (up to %v)\n", s, *shutdownTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Fatal(err)
		}
	}
}

// backend is the serving surface main drives: a single-node serve.Store
// or a sharded shard.Coordinator, both of which speak servehttp.Backend
// plus the lifecycle and introspection methods the startup banner needs.
type backend interface {
	servehttp.Backend
	Materialized() []serve.MaterializedCuboid
	NumFacts() int
	CompactLoop(ctx context.Context)
	Close() error
}

// buildInputs parses the document and query and evaluates the match phase.
func buildInputs(xmlPath, queryText, queryFile string) (*lattice.Lattice, *match.Set, error) {
	if xmlPath == "" {
		return nil, nil, fmt.Errorf("need -xml")
	}
	qt := queryText
	if queryFile != "" {
		b, err := os.ReadFile(queryFile)
		if err != nil {
			return nil, nil, err
		}
		qt = string(b)
	}
	if qt == "" {
		return nil, nil, fmt.Errorf("need -query or -queryfile")
	}
	spec, err := xq.Parse(qt)
	if err != nil {
		return nil, nil, err
	}
	lat, err := lattice.New(spec)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.Open(xmlPath)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	doc, err := xmltree.Parse(f)
	if err != nil {
		return nil, nil, err
	}
	set, err := match.Evaluate(doc, lat)
	if err != nil {
		return nil, nil, err
	}
	return lat, set, nil
}
