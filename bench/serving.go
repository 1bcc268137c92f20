package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"x3/internal/cellfile"
	"x3/internal/serve"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is one invocation's input.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	// x3serve is the server binary the serving workloads run as a child.
	x3serve string
	// outDir receives traces and result files; scratch goes under it too.
	outDir string
}

// runResult is one invocation's output.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info are the sizes and settings printed beside the results; Extra
	// are report-only numbers that are not part of the contract's metric
	// sets (per-kind latencies on serve-ingest, sample counts, …).
	Info  map[string]any    `json:"info"`
	Extra map[string]metric `json:"extra,omitempty"`
	Notes []string          `json:"notes,omitempty"`
}

func newResult(cfg runConfig) *runResult {
	return &runResult{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Metrics: map[string]metric{}, Info: map[string]any{}, Extra: map[string]metric{},
	}
}

func (r *runResult) fail(n int, format string, args ...any) {
	r.Failed += n
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// cacheBytesFor sizes the block cache against the store's data bytes:
// serve-scan's cache holds an eighth of the data, so the eight large
// cuboids it cycles through never fit; every other workload gets twice
// the data, so after warm-up no block is ever decoded again.
func cacheBytesFor(workload string, dataBytes int64) int64 {
	switch workload {
	case wlScan:
		return max(dataBytes/8, 1)
	case wlIngest:
		// x3serve's default cache (64 nominal blocks): the ladder's files
		// change under it, so its size is not the workload's subject.
		return 64 * cellfile.DefaultBlockBytes
	}
	return 2 * dataBytes
}

// childArgs are the x3serve flags of one workload, less -addr. dataBytes
// 0 (not known before the first set-up) leaves the cache at its default,
// as serve-ingest always does.
func childArgs(workload string, c *corpus, workDir string, dataBytes int64, sz sizes) []string {
	args := []string{"-xml", c.xmlPath, "-queryfile", c.queryPath}
	if dataBytes > 0 && workload != wlIngest {
		args = append(args, "-cache-bytes", strconv.FormatInt(cacheBytesFor(workload, dataBytes), 10))
	}
	switch workload {
	case wlIngest:
		// The ladder policy; the flush policy is the store's only one:
		// every append fsyncs the WAL before it is acknowledged.
		args = append(args, "-store", filepath.Join(workDir, "store"),
			"-flush-cells", strconv.Itoa(sz.flushCells), "-compact-after", "4")
	case wlShard:
		args = append(args, "-store", filepath.Join(workDir, "store"), "-shards", "4", "-replicas", "2")
	default:
		args = append(args, "-cells", filepath.Join(workDir, "cube.x3ci"))
	}
	return args
}

// storeRoot is where the child's cell files live.
func storeRoot(workload, workDir string) string {
	if workload == wlIngest || workload == wlShard {
		return filepath.Join(workDir, "store")
	}
	return filepath.Join(workDir, "cube.x3ci")
}

// serving is a set-up serving workload: corpus on disk, child running.
type serving struct {
	cfg     runConfig
	workDir string
	corpus  *corpus
	child   *child
	args    []string
	// dataBytes and cells describe the freshly built store.
	dataBytes, cells int64
	setupS           []float64
}

// setUp generates the corpus and brings the child up, cfg.sz.setups
// times over; each repetition is the whole of what a user waits for —
// corpus generation, cube build, server ready — and all but the last are
// torn down again. Workloads whose cache is sized against the store need
// its size first, so they always set up at least twice and, when only one
// set-up was asked for, do not count the first.
func setUp(ctx context.Context, cfg runConfig, reps int) (*serving, error) {
	s := &serving{cfg: cfg, workDir: filepath.Join(cfg.outDir, fmt.Sprintf("work-%d-%s", os.Getpid(), cfg.workload))}
	if err := os.RemoveAll(s.workDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(s.workDir, 0o755); err != nil {
		return nil, err
	}
	total := reps
	if cfg.workload != wlIngest && total < 2 {
		total = 2
	}
	for i := 0; i < total; i++ {
		if err := os.RemoveAll(storeRoot(cfg.workload, s.workDir)); err != nil {
			return nil, err
		}
		t0 := time.Now()
		c, err := genCorpus(s.workDir, cfg.sz.articles, cfg.seed)
		if err != nil {
			return nil, err
		}
		s.corpus = c
		s.args = childArgs(cfg.workload, c, s.workDir, s.dataBytes, cfg.sz)
		ch, err := startChild(ctx, cfg.x3serve, filepath.Join(s.workDir, "x3serve.log"), s.args)
		if err != nil {
			return nil, err
		}
		if i >= total-reps {
			s.setupS = append(s.setupS, time.Since(t0).Seconds())
		}
		s.child = ch
		if s.dataBytes, s.cells, err = storeBytes(storeRoot(cfg.workload, s.workDir)); err != nil {
			ch.kill()
			return nil, err
		}
		if i < total-1 {
			ch.kill()
		}
	}
	return s, nil
}

// tearDown stops the child and removes the scratch directory.
func (s *serving) tearDown() {
	if s.child != nil {
		s.child.kill()
	}
	os.RemoveAll(s.workDir)
}

// describe records the sizes every report prints.
func (s *serving) describe(res *runResult) {
	res.Info["articles"] = s.cfg.sz.articles
	res.Info["cells"] = s.cells
	res.Info["data_bytes"] = s.dataBytes
	res.Info["cache_bytes"] = cacheBytesFor(s.cfg.workload, s.dataBytes)
	res.Info["clients"] = clients
	res.Info["child_command"] = s.child.commandLine(s.cfg.x3serve)
}

// summarize turns one closed-loop phase into the latency and throughput
// metrics. On serve-ingest the gated latency is the durable-append
// acknowledgement — one homogeneous class, so the median does not sit on
// the boundary between two kinds of operation — while throughput counts
// queries and appends alike; the per-kind numbers go to Extra.
func summarize(workload string, lr loadResult, res *runResult) {
	all := latencies(lr.samples, func(sample) bool { return true })
	primary := all
	if workload == wlIngest {
		primary = latencies(lr.samples, func(s sample) bool { return s.append })
		queries := latencies(lr.samples, func(s sample) bool { return !s.append })
		qTail, _ := windowedTail(queries, 0.99)
		res.Extra["query_p50_ms"] = metric{median(queries), "ms"}
		res.Extra["query_p99_ms"] = metric{qTail, "ms"}
		res.Extra["query_qps"] = metric{float64(len(queries)) / lr.elapsed.Seconds(), "1/s"}
		res.Extra["append_ops"] = metric{float64(len(primary)) / lr.elapsed.Seconds(), "1/s"}
	}
	tail, beyond := windowedTail(primary, 0.99)
	res.Metrics["op_p50_ms"] = metric{median(primary), "ms"}
	res.Metrics["op_p99_ms"] = metric{tail, "ms"}
	res.Metrics["ops_per_s"] = metric{float64(len(all)) / lr.elapsed.Seconds(), "1/s"}
	res.Info["latency_samples"] = len(primary)
	res.Info["p50_by_window_ms"] = windowQuantiles(primary, 0.5)
	res.Info["p99_samples_beyond_per_window"] = beyond
	res.Info["generator_share_of_wall"] = 1 - lr.busy.Seconds()/(float64(clients)*lr.elapsed.Seconds())
	res.Attempted += len(lr.samples) + lr.failed
	if lr.failed > 0 {
		res.fail(lr.failed, "%d operations failed, first: %s", lr.failed, lr.firstErr)
	}
}

// appendBudget is how many one-article appends serve-ingest pre-generates:
// well past what the store can acknowledge in the run.
func appendBudget(seconds float64) int { return int(3000*seconds) + 1000 }

// runServing is the untraced, gated run of a serving workload: the
// program runs as a child process and is driven over loopback HTTP.
func runServing(ctx context.Context, cfg runConfig) (*runResult, error) {
	res := newResult(cfg)
	s, err := setUp(ctx, cfg, cfg.sz.setups)
	if err != nil {
		return nil, err
	}
	defer s.tearDown()
	s.describe(res)
	res.Metrics["setup_s"] = metric{median(s.setupS), "s"}
	res.Info["setup_runs_s"] = s.setupS
	res.Metrics["bytes_per_cell"] = metric{float64(s.dataBytes) / float64(s.cells), "B"}

	st := buildStreams(cfg.workload, s.corpus.cfg, cfg.seed, appendBudget(cfg.seconds))
	measure := time.Duration(cfg.seconds * float64(time.Second))
	warmup := time.Duration(warmupShare * float64(measure))
	lr := runLoad(ctx, s.child.base, st, 0, warmup, measure, nil)
	summarize(cfg.workload, lr, res)

	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	if snap, err := s.child.metrics(ctx, hc); err == nil {
		refused := snap.Counters["admit.over_quota"] + snap.Counters["admit.saturated"]
		if refused > 0 {
			res.fail(0, "admission refused %d requests; none should be", refused)
		}
		res.Info["compact_runs"] = snap.Counters["compact.runs"]
		res.Info["flush_runs"] = snap.Counters["serve.flush.runs"]
	}
	if cfg.workload == wlIngest {
		err = s.checkIngest(ctx, hc, lr.acked, res)
	} else {
		_, err = checkStatic(ctx, s.child.base, s.corpus, st.distinct, res)
	}
	return res, err
}

// checkIngest is serve-ingest's durability and correctness check: quiesce
// (an empty /refresh flushes the memtable and compacts the ladder to one
// base file), compare every cuboid with the oracle over base +
// acknowledged appends, SIGKILL the child, restart it on the same store,
// and compare again — every acknowledged append must survive. The kill
// leaves the operating system's page cache intact, so this proves the
// recovery path, not the disk.
func (s *serving) checkIngest(ctx context.Context, hc *http.Client, acked [][]byte, res *runResult) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.child.base+"/refresh", bytes.NewReader([]byte("<dblp></dblp>")))
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	res.Attempted++
	if resp.StatusCode != http.StatusOK {
		res.fail(1, "quiescing /refresh answered %d", resp.StatusCode)
	}
	dataBytes, cells, err := storeBytes(storeRoot(wlIngest, s.workDir))
	if err != nil {
		return err
	}
	res.Metrics["bytes_per_cell"] = metric{float64(dataBytes) / float64(cells), "B"}
	res.Info["cells_after_ingest"] = cells
	res.Info["appends_acknowledged"] = len(acked)

	orc, err := newOracle(s.corpus, acked)
	if err != nil {
		return err
	}
	full := fullCuboids()
	verify(ctx, s.child.base, orc, full, "16 cuboids before the kill", res)
	s.child.kill()
	t0 := time.Now()
	if s.child, err = startChild(ctx, s.cfg.x3serve, filepath.Join(s.workDir, "x3serve.log"), s.args); err != nil {
		return err
	}
	res.Extra["recovery_s"] = metric{time.Since(t0).Seconds(), "s"}
	verify(ctx, s.child.base, orc, full, "16 cuboids after the restart", res)
	return nil
}

// checkStatic sends every distinct request of a static workload once and
// compares the answer, row for row, with an in-process COUNTER cube of
// the same corpus. It returns the decoded answers.
func checkStatic(ctx context.Context, base string, c *corpus, reqs []serve.Request, res *runResult) ([]*serve.Response, error) {
	orc, err := newOracle(c, nil)
	if err != nil {
		return nil, err
	}
	res.Info["distinct_requests_checked"] = len(reqs)
	return verify(ctx, base, orc, reqs, "distinct requests", res), nil
}
