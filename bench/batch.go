package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"x3/internal/agg"
	"x3/internal/cellfile"
	"x3/internal/cube"
	"x3/internal/dataset"
	"x3/internal/harness"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/matchfile"
	"x3/internal/mem"
	"x3/internal/obs"
	"x3/internal/xmltree"
)

// batchEntry is one line of batch-cube's run list.
type batchEntry struct {
	dataset string // "dblp" or "treebank"
	alg     string
	workers int
	// exact algorithms must emit the same cube; the optimistic top-down
	// variants prune cuboids the DTD lets them derive and agree only with
	// one another (§4.3), so each class is compared within itself.
	exact bool
}

// name is the entry's metric-safe label ("TDPAR2.dblp").
func (e batchEntry) name() string {
	alg := e.alg
	if e.workers > 1 {
		alg = fmt.Sprintf("%s%d", alg, e.workers)
	}
	return alg + "." + e.dataset
}

// batchRunList is the paper's side of the benchmark: the DBLP setting of
// Fig. 10 and the sparse, coverage-fails Treebank setting of Fig. 5 at
// five axes. Everything runs on one worker except the parallel entry.
var batchRunList = []batchEntry{
	{"dblp", "COUNTER", 1, true},
	{"dblp", "BUC", 1, true},
	{"dblp", "BUCCUST", 1, true},
	{"dblp", "TD", 1, true},
	{"dblp", "TDOPTALL", 1, false},
	{"dblp", "TDPAR", 2, false},
	{"treebank", "COUNTER", 1, true},
	{"treebank", "BUC", 1, true},
	{"treebank", "TD", 1, true},
}

// batchFigure maps a run-list dataset to its harness figure and axes.
func batchFigure(ds string) (string, int) {
	if ds == "dblp" {
		return "fig10", 4
	}
	return "fig5", 5
}

// sumSink counts cells and folds them into an order-independent checksum,
// so two algorithms that emit the same cube in different orders agree.
type sumSink struct {
	cells int64
	sum   uint64
}

func (s *sumSink) Cell(point uint32, key []match.ValueID, st agg.State) error {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(point))
	for _, k := range key {
		put(uint64(k))
	}
	put(uint64(st.N))
	put(math.Float64bits(st.Sum))
	s.cells++
	s.sum += h.Sum64()
	return nil
}

// batchSetup prepares both datasets through the harness: corpus
// generation, match evaluation, match-file materialization — everything
// that precedes cubing.
func batchSetup(dir string, scale float64, seed int64, reg *obs.Registry) (map[string]*harness.Workload, harness.Options, error) {
	opt := harness.Options{Scale: scale, Timeout: time.Minute, TmpDir: dir, Seed: seed, Workers: 1, Registry: reg}
	out := map[string]*harness.Workload{}
	for _, ds := range []string{"dblp", "treebank"} {
		fig, axes := batchFigure(ds)
		cfg, err := harness.FigureByID(fig)
		if err != nil {
			return nil, opt, err
		}
		w, err := harness.Prepare(cfg, opt, axes)
		if err != nil {
			return nil, opt, err
		}
		out[ds] = w
	}
	return out, opt, nil
}

// cubeInto runs one algorithm over a prepared workload into sink, the way
// harness.RunAlgorithm does but with the caller's sink.
func cubeInto(w *harness.Workload, e batchEntry, tmp string, sink cube.Sink) error {
	alg, err := cube.ByName(e.alg)
	if err != nil {
		return err
	}
	src, err := matchfile.Open(w.MatchPath)
	if err != nil {
		return err
	}
	in := &cube.Input{
		Lattice: w.Lattice, Source: src, Dicts: src.Dicts(),
		Budget: mem.New(w.Budget), TmpDir: tmp, Props: w.Props, Workers: e.workers,
	}
	_, err = alg.Run(in, sink)
	return err
}

// runBatch is batch-cube, untraced or traced: serving layers do nothing
// here; match, cube, extsort and the cell-file writer do everything.
func runBatch(ctx context.Context, cfg runConfig) (*runResult, error) {
	res := newResult(cfg)
	dir := filepath.Join(cfg.outDir, fmt.Sprintf("work-%d-%s", os.Getpid(), cfg.workload))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var reg *obs.Registry
	var rec *Recorder
	if cfg.trace {
		reg, rec = obs.New(), newRecorder()
	}
	var (
		wls    map[string]*harness.Workload
		opt    harness.Options
		setups []float64
		err    error
	)
	// Set-up here takes tens of milliseconds, so it is repeated more often
	// than the serving workloads' to steady its median.
	for i := 0; i < 3*cfg.sz.setups; i++ {
		for _, w := range wls {
			w.Remove()
		}
		t0 := time.Now()
		if wls, opt, err = batchSetup(dir, cfg.sz.batchScale, cfg.seed, reg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.Info["scale"] = cfg.sz.batchScale
	res.Info["budget_bytes"] = wls["dblp"].Budget
	res.Info["facts_dblp"] = wls["dblp"].Facts
	res.Info["facts_treebank"] = wls["treebank"].Facts

	// Checked pass, untimed (it doubles as the warm-up): every entry's
	// cell count and checksum, compared within its dataset and class.
	want := map[string]sumSink{}
	class := map[string]sumSink{}
	for _, e := range batchRunList {
		var got sumSink
		if err := cubeInto(wls[e.dataset], e, dir, &got); err != nil {
			return nil, fmt.Errorf("%s: %w", e.name(), err)
		}
		res.Attempted++
		want[e.name()] = got
		key := fmt.Sprintf("%s/%v", e.dataset, e.exact)
		if ref, ok := class[key]; !ok {
			class[key] = got
		} else if ref != got {
			res.fail(1, "%s emitted %d cells (checksum %x); its class emitted %d (%x)", e.name(), got.cells, got.sum, ref.cells, ref.sum)
		}
	}

	// The cell-file writer, timed alone: the DBLP cube through the v4
	// indexed sink, which also gives the stored bytes per cell.
	cellPath := filepath.Join(dir, "dblp.x3ci")
	sink := cellfile.CreateIndexed(cellPath)
	if err := cubeInto(wls["dblp"], batchRunList[0], dir, sink); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := sink.Close(); err != nil {
		return nil, err
	}
	encode := time.Since(t0)
	dataBytes, cells, err := storeBytes(cellPath)
	if err != nil {
		return nil, err
	}
	res.Info["cells_dblp"] = cells

	// Timed passes over the run list until the interval ends. One pass is
	// one operation: every pass does the same work, so pass times form one
	// population with a meaningful median, where the nine entries' own
	// times — 15 ms to 300 ms — would not.
	measure := time.Duration(cfg.seconds * float64(time.Second))
	var lat []float64
	perEntry := map[string][]float64{}
	begin := time.Now()
	for pass := int64(1); time.Since(begin) < measure && ctx.Err() == nil; pass++ {
		pctx, endPass := rec.start(withRequest(ctx, pass, 0), "batch.pass")
		var passS float64
		clean := true
		for _, e := range batchRunList {
			o := opt
			o.Workers = e.workers
			_, end := rec.start(pctx, "cube."+e.name())
			row, err := wls[e.dataset].RunAlgorithm(e.alg, o)
			end()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", e.name(), err)
			}
			res.Attempted++
			if row.DNF != "" || row.Cells != want[e.name()].cells {
				res.fail(1, "%s: %d cells, DNF %q; the checked pass emitted %d", e.name(), row.Cells, row.DNF, want[e.name()].cells)
				clean = false
				continue
			}
			passS += row.Seconds
			perEntry[e.name()] = append(perEntry[e.name()], row.Seconds)
		}
		endPass()
		if clean {
			lat = append(lat, passS*1000)
		}
	}
	elapsed := time.Since(begin)
	for _, w := range wls {
		w.Remove()
	}

	var cubeS float64
	var cubeCells int64
	for _, e := range batchRunList {
		cubeS += median(perEntry[e.name()])
		cubeCells += want[e.name()].cells
	}
	med := func(name string) float64 { return median(perEntry[name]) }
	res.Info["passes"] = len(perEntry[batchRunList[0].name()])
	res.Info["shape_buc_le_td_sparse"] = med("BUC.treebank") <= med("TD.treebank")
	res.Info["shape_buccust_le_buc_dblp"] = med("BUCCUST.dblp") <= med("BUC.dblp")
	fastest := true
	for _, e := range batchRunList {
		if e.dataset == "dblp" && e.workers == 1 && med(e.name()) < med("TDOPTALL.dblp") {
			fastest = false
		}
	}
	res.Info["shape_tdoptall_fastest_dblp"] = fastest
	res.Extra["cube_s"] = metric{cubeS, "s"}
	res.Extra["cube_cells_per_s"] = metric{float64(cubeCells) / cubeS, "1/s"}

	if !cfg.trace {
		tail, beyond := windowedTail(lat, 0.99)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["op_p50_ms"] = metric{median(lat), "ms"}
		res.Metrics["op_p99_ms"] = metric{tail, "ms"}
		res.Metrics["ops_per_s"] = metric{float64(len(lat)) / elapsed.Seconds(), "1/s"}
		res.Metrics["bytes_per_cell"] = metric{float64(dataBytes) / float64(cells), "B"}
		res.Info["latency_samples"] = len(lat)
		res.Info["p50_by_window_ms"] = windowQuantiles(lat, 0.5)
		res.Info["p99_samples_beyond_per_window"] = beyond
		res.Info["setup_runs_s"] = setups
		return res, nil
	}

	zeroLayers(res)
	for _, e := range batchRunList {
		res.Metrics["cube."+e.name()+".s"] = metric{med(e.name()), "s"}
	}
	res.Metrics["cellfile.encode_ns_per_cell"] = metric{float64(encode.Nanoseconds()) / float64(cells), "ns"}
	snap := reg.Snapshot()
	res.Metrics["extsort.spill_bytes"] = metric{float64(snap.Counters["extsort.spill.bytes"]), "B"}
	res.Metrics["extsort.runs"] = metric{float64(snap.Counters["extsort.runs.spilled"]), "count"}
	parseS, evalS, err := parseAndMatch(dataset.DBLP(dataset.DefaultDBLPConfig(wls["dblp"].Facts, cfg.seed)), wls["dblp"].Lattice)
	if err != nil {
		return nil, err
	}
	res.Metrics["xmltree.parse_s"] = metric{parseS, "s"}
	res.Metrics["match.evaluate_s"] = metric{evalS, "s"}
	spans := rec.snapshot()
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "cube.") && s.Name != "batch.pass" {
			res.fail(0, "unexpected span %q in batch-cube", s.Name)
		}
	}
	res.Info["spans"] = len(spans)
	return res, writeTrace(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"), spans)
}

// parseAndMatch times the two phases that precede cubing on their own:
// parsing the serialized document and evaluating the query's pattern.
func parseAndMatch(doc *xmltree.Document, lat *lattice.Lattice) (parseS, evalS float64, err error) {
	var buf bytes.Buffer
	if err := doc.Write(&buf); err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	parsed, err := xmltree.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return 0, 0, err
	}
	parseS = time.Since(t0).Seconds()
	dicts := make([]*match.Dict, lat.NumAxes())
	for i := range dicts {
		dicts[i] = match.NewDict()
	}
	t0 = time.Now()
	if _, err := match.EvaluateWith(parsed, lat, dicts); err != nil {
		return 0, 0, err
	}
	return parseS, time.Since(t0).Seconds(), nil
}
