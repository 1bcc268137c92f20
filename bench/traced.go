package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"x3/internal/admit"
	"x3/internal/cellfile"
	"x3/internal/match"
	"x3/internal/obs"
	"x3/internal/serve"
	"x3/internal/servehttp"
	"x3/internal/shard"
	"x3/internal/wal"
)

// tracedBackend records a span around the two calls the HTTP edge makes
// into its backend; everything else passes through.
type tracedBackend struct {
	servehttp.Backend
	rec *Recorder
}

func (b tracedBackend) ServeRequest(ctx context.Context, req serve.Request) (*serve.Response, error) {
	ctx, end := b.rec.start(ctx, "backend.query")
	defer end()
	return b.Backend.ServeRequest(ctx, req)
}

func (b tracedBackend) Append(ctx context.Context, body []byte) (int64, error) {
	ctx, end := b.rec.start(ctx, "backend.append")
	defer end()
	return b.Backend.Append(ctx, body)
}

// tracedReplica records a span around one replica's leg of a scatter.
type tracedReplica struct {
	shard.Replica
	rec *Recorder
}

func (r tracedReplica) Query(ctx context.Context, req serve.Request) (*serve.CellAnswer, error) {
	ctx, end := r.rec.start(ctx, "replica.query")
	defer end()
	return r.Replica.Query(ctx, req)
}

// tracedHandler opens the server-side root span of a request that carries
// the tracing headers and hands the tagged context down the chain.
func tracedHandler(rec *Recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id := r.Header.Get(reqIDHeader); id != "" {
			req, _ := strconv.ParseInt(id, 10, 64)
			parent, _ := strconv.Atoi(r.Header.Get(parentHeader))
			ctx, end := rec.start(withRequest(r.Context(), req, parent), "servehttp.handler")
			defer end()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}

// stack is the serving stack hosted inside the benchmark process,
// assembled from the same public constructors cmd/x3serve uses, with the
// span-recording wrappers at the seams the code already exposes.
type stack struct {
	reg    *obs.Registry
	stores []*serve.Store // one (single node) or shards×replicas
	coord  *shard.Coordinator
	srv    *http.Server
	base   string
	// stopCompact ends the background compaction loop (a no-op without
	// one) and returns once it has exited; stop ends the HTTP server too
	// and closes the stores.
	stopCompact func()
	stop        func()
}

// newStack builds the workload's topology over set and serves it on a
// loopback port.
func newStack(workload string, c *corpus, set *match.Set, dir string, cacheBytes int64, sz sizes, rec *Recorder) (*stack, error) {
	st := &stack{reg: obs.New()}
	opt := serve.Options{CacheBytes: cacheBytes, Registry: st.reg}
	var backend servehttp.Backend
	var compact func(context.Context)
	switch workload {
	case wlShard:
		// What shard.New does, with each replica wrapped: partition, clone
		// the fact set per replica, build a ladder store each.
		var groups [][]shard.Replica
		for si, part := range shard.Partition(set, 4) {
			var g []shard.Replica
			for ri := 0; ri < 2; ri++ {
				clone := &match.Set{Lattice: part.Lattice, Facts: append([]*match.Fact(nil), part.Facts...)}
				for _, d := range part.Dicts {
					nd := match.NewDict()
					for _, v := range d.Values() {
						nd.ID(v)
					}
					clone.Dicts = append(clone.Dicts, nd)
				}
				s, err := serve.BuildDir(filepath.Join(dir, fmt.Sprintf("s%d-r%d", si, ri)), c.lat, clone, opt)
				if err != nil {
					return nil, err
				}
				st.stores = append(st.stores, s)
				g = append(g, tracedReplica{shard.NewStoreReplica(fmt.Sprintf("s%d/r%d", si, ri), s), rec})
			}
			groups = append(groups, g)
		}
		coord, err := shard.NewWithReplicas(c.lat, groups, shard.Options{Registry: st.reg})
		if err != nil {
			return nil, err
		}
		st.coord, backend = coord, coord
	case wlIngest:
		opt.CacheBytes = 0
		opt.FlushCells, opt.CompactAfter = sz.flushCells, 4
		s, err := serve.BuildDir(filepath.Join(dir, "ladder"), c.lat, set, opt)
		if err != nil {
			return nil, err
		}
		st.stores, backend, compact = []*serve.Store{s}, s, s.CompactLoop
	default:
		s, err := serve.Build(filepath.Join(dir, "traced.x3ci"), c.lat, set, opt)
		if err != nil {
			return nil, err
		}
		st.stores, backend = []*serve.Store{s}, s
	}

	ctrl := admit.New(admit.Config{MaxInFlight: 64, Registry: st.reg})
	handler := servehttp.New(tracedBackend{backend, rec}, st.reg, servehttp.Options{Admission: ctrl, RequestTimeout: 30 * time.Second})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.srv = &http.Server{Handler: tracedHandler(rec, handler)}
	st.base = "http://" + l.Addr().String()
	served := make(chan struct{})
	go func() {
		defer close(served)
		st.srv.Serve(l)
	}()
	ctx, cancel := context.WithCancel(context.Background())
	compacted := make(chan struct{})
	go func() {
		defer close(compacted)
		if compact != nil {
			compact(ctx)
		}
	}()
	st.stopCompact = func() {
		cancel()
		<-compacted
	}
	st.stop = func() {
		st.stopCompact()
		st.srv.Close()
		<-served
		if st.coord != nil {
			st.coord.Close()
		} else {
			st.stores[0].Close()
		}
	}
	return st, nil
}

// zeroLayers sets every per-layer metric to zero with its unit, so a
// layer a workload does not exercise reads 0 instead of being absent.
func zeroLayers(res *runResult) {
	for _, d := range perLayer {
		res.Metrics[d.Name] = metric{0, d.Unit}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runServingTraced is the traced run of a serving workload. A short
// child-process phase gives the process-level numbers and the untraced
// p50 the tracing overhead is stated against; then the same stack, hosted
// in this process with span-recording wrappers, gives the per-layer
// numbers, and the leaves (cellfile, wal, admit, JSON encoding) are timed
// by calling them directly.
func runServingTraced(ctx context.Context, cfg runConfig) (*runResult, error) {
	res := newResult(cfg)
	zeroLayers(res)
	s, err := setUp(ctx, cfg, 1)
	if err != nil {
		return nil, err
	}
	defer s.tearDown()
	s.describe(res)
	total := time.Duration(cfg.seconds * float64(time.Second))
	st := buildStreams(cfg.workload, s.corpus.cfg, cfg.seed, appendBudget(cfg.seconds))

	// Phase A: the child process, untraced.
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	_, cpu0 := s.child.procStat()
	lrA := runLoad(ctx, s.child.base, st, 0, total/10, total*3/10, nil)
	rss, cpu1 := s.child.procStat()
	res.Attempted += len(lrA.samples) + lrA.failed
	if lrA.failed > 0 {
		res.fail(lrA.failed, "child phase: %d operations failed, first: %s", lrA.failed, lrA.firstErr)
	}
	primary := func(x sample) bool { return cfg.workload != wlIngest || x.append }
	untracedP50 := median(latencies(lrA.samples, primary))
	res.Metrics["proc.peak_rss_mb"] = metric{rss, "MB"}
	// The CPU clock ticks at 100 Hz and the warm-up's share is subtracted
	// by proportion: a coarse figure, good to a few per cent over seconds.
	cpuMeasured := float64(cpu1-cpu0) * 0.75
	res.Metrics["proc.cpu_ms_per_query"] = metric{ratio(cpuMeasured/float64(time.Millisecond), float64(len(lrA.samples))), "ms"}
	if snap, err := s.child.metrics(ctx, hc); err == nil {
		edge := float64(snap.HDR["serve.http.latency"].P50) / float64(time.Millisecond)
		res.Metrics["wire_ms"] = metric{median(latencies(lrA.samples, func(sample) bool { return true })) - edge, "ms"}
	}
	s.child.kill()
	s.child = nil

	// Phase B: the same stack in this process, traced.
	rec := newRecorder()
	set, err := s.corpus.evaluate()
	if err != nil {
		return nil, err
	}
	stk, err := newStack(cfg.workload, s.corpus, set, s.workDir, cacheBytesFor(cfg.workload, s.dataBytes), cfg.sz, rec)
	if err != nil {
		return nil, err
	}
	defer stk.stop()
	gens := sampleGenerations(stk.stores[0])
	lrB := runLoad(ctx, stk.base, st, 0, total/10, total*6/10, rec)
	res.Metrics["serve.gens_outstanding"] = metric{float64(gens()), "count"}
	res.Attempted += len(lrB.samples) + lrB.failed
	if lrB.failed > 0 {
		res.fail(lrB.failed, "traced phase: %d operations failed, first: %s", lrB.failed, lrB.firstErr)
	}
	// A brief untraced phase on the same in-process stack separates the
	// cost of the spans from the cost of hosting the stack beside the load
	// generator.
	lrC := runLoad(ctx, stk.base, st, len(lrB.acked)+lrB.failed, 0, total/10, nil)
	tracedP50 := median(latencies(lrB.samples, primary))
	res.Metrics["trace.overhead_ratio"] = metric{ratio(tracedP50, median(latencies(lrC.samples, primary))) - 1, "ratio"}
	res.Extra["traced_minus_child_p50_ratio"] = metric{ratio(tracedP50, untracedP50) - 1, "ratio"}

	var answers []*serve.Response
	if cfg.workload != wlIngest {
		if answers, err = checkStatic(ctx, stk.base, s.corpus, st.distinct, res); err != nil {
			return nil, err
		}
	}
	spans := rec.snapshot()
	res.Info["spans"] = len(spans)
	if err := writeTrace(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"), spans); err != nil {
		return nil, err
	}
	sums := spanMetrics(spans, res)

	// Counters of the in-process registry: ratios over the whole phase.
	snap := stk.reg.Snapshot()
	cn := func(k string) float64 { return float64(snap.Counters[k]) }
	res.Metrics["admit.refused"] = metric{cn("admit.over_quota") + cn("admit.saturated"), "count"}
	res.Metrics["shard.hedge_wasted_ratio"] = metric{ratio(cn("shard.hedge.wasted"), cn("shard.hedge.fired")), "ratio"}
	res.Metrics["shard.failover"] = metric{cn("shard.failover"), "count"}
	res.Metrics["serve.plan_direct_ratio"] = metric{ratio(cn("serve.plan.direct"), cn("serve.queries")), "ratio"}
	res.Metrics["serve.cells_scanned_per_row"] = metric{ratio(cn("serve.scan.cells"), cn("serve.rows")), "ratio"}
	res.Metrics["cellfile.cache_hit_ratio"] = metric{ratio(cn("serve.cache.hits"), cn("serve.cache.hits")+cn("serve.cache.misses")), "ratio"}
	res.Metrics["cellfile.blocks_read"] = metric{cn("serve.cache.misses"), "count"}
	res.Metrics["serve.compact_runs"] = metric{cn("compact.runs"), "count"}
	res.Metrics["serve.rewrite_cells_per_appended_cell"] = metric{ratio(cn("compact.cells"), cn("serve.flush.cells")), "ratio"}
	res.Metrics["wal.bytes_per_payload_byte"] = metric{ratio(cn("wal.append.bytes"), float64(payloadBytes(lrB.acked)+payloadBytes(lrC.acked))), "ratio"}
	scanPerQuery := ratio(cn("serve.scan.cells"), cn("serve.queries"))

	// Leaves, by direct timed calls.
	leaf, err := timeLeaves(ctx, cfg, s, stk, st, answers)
	if err != nil {
		return nil, err
	}
	for k, v := range leaf {
		res.Metrics[k] = v
	}

	// Shares of the client-observed time, summed over the traced requests.
	// cellfile's part of a query is the replayed decode cost per cell
	// times the cells the store scanned per query (on the sharded stack
	// the legs run side by side, so one leg's cells are on the blocking
	// path); it is carved out of the span that contains it.
	if sums.client > 0 {
		legs := 1.0
		if cfg.workload == wlShard {
			legs = 4
		}
		cellNS := leaf["cellfile.decode_ns_per_cell"].Value * scanPerQuery * float64(sums.queries) / legs
		cellNS = min(cellNS, float64(sums.store))
		walNS := leaf["wal.append_ms"].Value * float64(time.Millisecond) * float64(sums.appends)
		walNS = min(walNS, float64(sums.store)-cellNS)
		res.Metrics["share.wire"] = metric{float64(sums.wire) / float64(sums.client), "ratio"}
		res.Metrics["share.servehttp"] = metric{float64(sums.edge) / float64(sums.client), "ratio"}
		res.Metrics["share.shard"] = metric{float64(sums.coord) / float64(sums.client), "ratio"}
		res.Metrics["share.cellfile"] = metric{cellNS / float64(sums.client), "ratio"}
		res.Metrics["share.wal"] = metric{walNS / float64(sums.client), "ratio"}
		res.Metrics["share.serve"] = metric{(float64(sums.store) - cellNS - walNS) / float64(sums.client), "ratio"}
	}
	return res, nil
}

func payloadBytes(bodies [][]byte) int64 {
	var n int64
	for _, b := range bodies {
		n += int64(len(b))
	}
	return n
}

// sampleGenerations polls a store's ladder shape ten times a second until
// the returned function is called, which reports the most outstanding
// delta generations seen.
func sampleGenerations(s *serve.Store) func() int {
	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		most := 0
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- most
				return
			case <-t.C:
				if d, _ := s.Generations(); d > most {
					most = d
				}
			}
		}
	}()
	return func() int {
		close(stop)
		return <-done
	}
}

// spanSums are the per-layer time totals over the traced requests, in
// nanoseconds.
type spanSums struct {
	client, wire, edge, coord, store int64
	queries, appends                 int
}

// spanMetrics folds the spans into the per-layer medians and returns the
// sums the shares are computed from. A layer's self time is its span
// minus the part its children cover.
func spanMetrics(spans []Span, res *runResult) spanSums {
	self := selfTimes(spans)
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var sums spanSums
	var edgeSelf, coordSelf, replica, answer []float64
	for _, s := range spans {
		d := s.End - s.Start
		switch s.Name {
		case "client.query", "client.append":
			sums.client += d
			sums.wire += self[s.ID]
			if s.Name == "client.query" {
				sums.queries++
			} else {
				sums.appends++
			}
		case "servehttp.handler":
			sums.edge += self[s.ID]
			edgeSelf = append(edgeSelf, ms(time.Duration(self[s.ID])))
		case "backend.query", "backend.append":
			if self[s.ID] < d { // has replica children: a coordinator
				sums.coord += self[s.ID]
				sums.store += d - self[s.ID]
				coordSelf = append(coordSelf, ms(time.Duration(self[s.ID])))
			} else {
				sums.store += d
				if s.Name == "backend.query" {
					answer = append(answer, ms(time.Duration(d)))
				}
			}
		case "replica.query":
			replica = append(replica, ms(time.Duration(d)))
			answer = append(answer, ms(time.Duration(d)))
		}
	}
	res.Metrics["servehttp.self_ms"] = metric{median(edgeSelf), "ms"}
	res.Metrics["shard.coord_self_ms"] = metric{median(coordSelf), "ms"}
	res.Metrics["shard.replica_ms"] = metric{median(replica), "ms"}
	res.Metrics["serve.answer_ms"] = metric{median(answer), "ms"}
	return sums
}

// timeLeaves times the layers no wrapper can reach, by calling their
// public functions directly on the traced stack's own files.
func timeLeaves(ctx context.Context, cfg runConfig, s *serving, stk *stack, st streams, answers []*serve.Response) (map[string]metric, error) {
	out := map[string]metric{}

	// servehttp's encoder: json.Marshal of each verified answer.
	if len(answers) > 0 {
		var rows int
		t0 := time.Now()
		for _, a := range answers {
			if _, err := json.Marshal(a); err != nil {
				return nil, err
			}
			rows += len(a.Rows)
		}
		out["servehttp.encode_ns_per_row"] = metric{ratio(float64(time.Since(t0).Nanoseconds()), float64(rows)), "ns"}
	}

	// admit: one admission and its release, uncontended.
	ctrl := admit.New(admit.Config{MaxInFlight: 64})
	const admits = 200000
	t0 := time.Now()
	for i := 0; i < admits; i++ {
		release, err := ctrl.Admit("default", admit.Interactive)
		if err != nil {
			return nil, err
		}
		release()
	}
	out["admit.check_ns"] = metric{float64(time.Since(t0).Nanoseconds()) / admits, "ns"}

	// cellfile: replay the cuboids client 0's queries address against the
	// store's own file under the workload's cache budget, and re-encode
	// the whole file through the writer.
	orc := &oracle{lat: s.corpus.lat}
	rdr, err := cellfile.OpenIndexed(stk.stores[0].Path())
	if err != nil {
		return nil, err
	}
	defer rdr.Close()
	reg := obs.New()
	rdr.Observe(reg)
	rdr.SetCache(cellfile.NewBlockCacheBytes(cacheBytesFor(cfg.workload, s.dataBytes)))
	replay := func(n int) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			o := &st.perClient[len(st.perClient)-1][i%streamLen]
			p, err := orc.point(o.req.Cuboid)
			if err != nil {
				return 0, err
			}
			if err := rdr.EachCuboidCtx(ctx, s.corpus.lat.ID(p), func(cellfile.Cell) error { return nil }); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	if _, err := replay(256); err != nil { // fill the cache as far as it fills
		return nil, err
	}
	before := reg.Snapshot().Counters["serve.scan.cells"]
	d, err := replay(1024)
	if err != nil {
		return nil, err
	}
	scanned := reg.Snapshot().Counters["serve.scan.cells"] - before
	out["cellfile.decode_ns_per_cell"] = metric{ratio(float64(d.Nanoseconds()), float64(scanned)), "ns"}

	var cells []cellfile.Cell
	if err := rdr.Each(func(c cellfile.Cell) error {
		c.Key = append([]match.ValueID(nil), c.Key...)
		cells = append(cells, c)
		return nil
	}); err != nil {
		return nil, err
	}
	t0 = time.Now()
	if err := cellfile.WriteIndexed(filepath.Join(s.workDir, "reencode.x3ci"), cells); err != nil {
		return nil, err
	}
	out["cellfile.encode_ns_per_cell"] = metric{ratio(float64(time.Since(t0).Nanoseconds()), float64(len(cells))), "ns"}

	if cfg.workload != wlIngest {
		return out, nil
	}

	// wal: a synced append of one ingest body, alone.
	w, err := wal.Create(filepath.Join(s.workDir, "probe.wal"), wal.Options{})
	if err != nil {
		return nil, err
	}
	var walMS []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if err := w.Append(uint64(i+1), st.perClient[0][i].body); err != nil {
			w.Close()
			return nil, err
		}
		walMS = append(walMS, ms(time.Since(t0)))
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	out["wal.append_ms"] = metric{median(walMS), "ms"}

	// Flush and compaction, timed on the traced ladder store itself once
	// its clients and its background compactor are gone: three flushes of
	// half a memtable of fresh articles each, then the compaction that
	// merges them.
	stk.stopCompact()
	store := stk.stores[0]
	if err := store.Flush(ctx); err != nil {
		return nil, err
	}
	shape := dblpShape(s.corpus.cfg)
	var flushMS []float64
	seq := int(cfg.seed)*1_000_000 + 900_000
	for k := 0; k < 3; k++ {
		for _, mem := store.Generations(); mem < int64(cfg.sz.flushCells)/2; _, mem = store.Generations() {
			if _, err := store.Append(ctx, shape.Append(seq)); err != nil {
				return nil, err
			}
			seq++
		}
		t0 := time.Now()
		if err := store.Flush(ctx); err != nil {
			return nil, err
		}
		flushMS = append(flushMS, ms(time.Since(t0)))
	}
	t0 = time.Now()
	if err := store.Compact(ctx); err != nil {
		return nil, err
	}
	out["serve.compact_ms"] = metric{ms(time.Since(t0)), "ms"}
	out["serve.flush_ms"] = metric{median(flushMS), "ms"}
	return out, nil
}
