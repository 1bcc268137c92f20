package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"x3/internal/dataset"
	"x3/internal/load"
	"x3/internal/serve"
)

// The workload names are fixed: later issues cite them.
const (
	wlHot    = "serve-hot"
	wlScan   = "serve-scan"
	wlIngest = "serve-ingest"
	wlShard  = "serve-shard"
	wlBatch  = "batch-cube"
)

var workloadNames = []string{wlHot, wlScan, wlIngest, wlShard, wlBatch}

// clients is the closed-loop client count of every serving workload: an
// analyst waits for a reply before the next drill, and the sandbox has
// two cores, so more clients would only measure the scheduler.
const clients = 2

// warmupShare is the warm-up before the measured interval, as a share of
// --seconds: long enough for the cache to fill as far as it fills.
const warmupShare = 0.2

// streamLen is how many operations one client's pre-generated stream
// holds; a client that exhausts it wraps around (queries only — append
// streams are sized never to wrap, see appendBudget).
const streamLen = 1 << 14

// op is one pre-marshalled operation of a client stream.
type op struct {
	// append marks a POST /append; otherwise the op is a POST /query.
	append bool
	body   []byte
	// req is the decoded query: the oracle's input.
	req serve.Request
}

// sizes scale the workloads; the smoke test shrinks them.
type sizes struct {
	// articles is the DBLP corpus size of the serving workloads.
	articles int
	// flushCells is serve-ingest's memtable flush threshold.
	flushCells int
	// batchScale scales the paper's tree counts and 512 MB budget for
	// batch-cube (harness.Options.Scale).
	batchScale float64
	// setups is how many times set-up is repeated for the setup_s median.
	setups int
}

var fullSizes = sizes{articles: 20000, flushCells: 512, batchScale: 0.02, setups: 5}

var smokeSizes = sizes{articles: 400, flushCells: 64, batchScale: 0.001, setups: 1}

// streams are the per-client operation streams of one workload plus the
// table of its distinct queries (each checked once against the oracle).
type streams struct {
	perClient [][]op
	distinct  []serve.Request
}

// requestTable interns queries so every distinct request is verified
// exactly once however often the streams repeat it.
type requestTable struct {
	seen map[string]bool
	reqs []serve.Request
}

func (t *requestTable) op(req serve.Request) op {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a map[string]string cannot fail to marshal
	}
	if !t.seen[string(body)] {
		t.seen[string(body)] = true
		t.reqs = append(t.reqs, req)
	}
	return op{body: body, req: req}
}

// dblpShape is the load harness's query shaper over the generator's
// value domains, so serve-hot is x3load's mix, not a look-alike.
func dblpShape(cfg dataset.DBLPConfig) load.DBLPWorkload {
	return load.DBLPWorkload{Journals: cfg.Journals, Authors: cfg.Authors, YearFrom: cfg.YearFrom, YearTo: cfg.YearTo}
}

// hotStreams is x3load's point/slice/rollup mix (0.6/0.3/0.1) on the
// small cuboids with Zipf(1.2) hot keys. serve-shard replays it byte for
// byte.
func hotStreams(cfg dataset.DBLPConfig, seed int64) streams {
	shape := dblpShape(cfg)
	tab := &requestTable{seen: map[string]bool{}}
	out := streams{perClient: make([][]op, clients)}
	for c := range out.perClient {
		rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
		zipf := rand.NewZipf(rng, 1.2, 1, 1<<20)
		ops := make([]op, streamLen)
		for i := range ops {
			kind := load.OpRollup
			switch x := rng.Float64(); {
			case x < 0.6:
				kind = load.OpPoint
			case x < 0.9:
				kind = load.OpSlice
			}
			ops[i] = tab.op(shape.Query(kind, zipf.Uint64()))
		}
		out.perClient[c] = ops
	}
	out.distinct = tab.reqs
	return out
}

// auCuboid returns the i-th (0..7) of the eight cuboids that keep $au
// rigid: bits of i relax $m, $y and $j to LND.
func auCuboid(i int) map[string]string {
	cub := map[string]string{"$au": "rigid"}
	for b, v := range []string{"$m", "$y", "$j"} {
		if i&(1<<b) == 0 {
			cub[v] = "rigid"
		}
	}
	return cub
}

// scanAuthors is how many authors serve-scan's keys are drawn from: with
// eight cuboids that is 1024 distinct requests, few enough to check every
// one against the oracle. The key has no bearing on the work — a slice
// decodes its whole cuboid whichever author it keeps.
const scanAuthors = 128

// scanStreams are selective slices over the eight $au:rigid cuboids —
// the largest in the lattice — with uniform author keys: every query
// decodes a whole cuboid and returns a handful of rows.
func scanStreams(cfg dataset.DBLPConfig, seed int64) streams {
	tab := &requestTable{seen: map[string]bool{}}
	out := streams{perClient: make([][]op, clients)}
	authors := rand.New(rand.NewSource(seed*1000 + 99)).Perm(cfg.Authors)[:scanAuthors]
	for c := range out.perClient {
		rng := rand.New(rand.NewSource(seed*1000 + 100 + int64(c)))
		ops := make([]op, streamLen)
		for i := range ops {
			ops[i] = tab.op(serve.Request{
				Cuboid: auCuboid(rng.Intn(8)),
				Where:  map[string]string{"$au": fmt.Sprintf("Author %d", authors[rng.Intn(scanAuthors)])},
			})
		}
		out.perClient[c] = ops
	}
	out.distinct = tab.reqs
	return out
}

// sweepCuboid returns the i-th (0..15) cuboid of the lattice and the axis
// a sweep query pins on it: the first live axis in $au, $j, $y, $m order
// (none on the bottom cuboid), so answers stay a few rows wide while the
// store still re-aggregates the whole cuboid across its generations.
func sweepCuboid(i int) (cub map[string]string, pin string) {
	cub = map[string]string{}
	for b, v := range []string{"$au", "$j", "$y", "$m"} {
		if i&(1<<b) == 0 {
			cub[v] = "rigid"
			if pin == "" {
				pin = v
			}
		}
	}
	return cub, pin
}

// ingestStreams gives client 0 one-article appends back to back and
// client 1 a sweep over all 16 cuboids. Append keys are unique per seed
// and sequence number, so no append ever repeats a fact.
func ingestStreams(cfg dataset.DBLPConfig, seed int64, appends int) streams {
	shape := dblpShape(cfg)
	tab := &requestTable{seen: map[string]bool{}}
	rng := rand.New(rand.NewSource(seed*1000 + 200))
	writer := make([]op, appends)
	for i := range writer {
		writer[i] = op{append: true, body: shape.Append(int(seed)*1_000_000 + i)}
	}
	reader := make([]op, streamLen)
	for i := range reader {
		cub, pin := sweepCuboid(i % 16)
		req := serve.Request{Cuboid: cub}
		switch pin {
		case "$au":
			req.Where = map[string]string{pin: fmt.Sprintf("Author %d", rng.Intn(cfg.Authors))}
		case "$j":
			req.Where = map[string]string{pin: fmt.Sprintf("Journal %d", rng.Intn(cfg.Journals))}
		case "$y":
			req.Where = map[string]string{pin: fmt.Sprintf("%d", cfg.YearFrom+rng.Intn(cfg.YearTo-cfg.YearFrom+1))}
		case "$m":
			req.Where = map[string]string{pin: "jan"}
		}
		reader[i] = tab.op(req)
	}
	return streams{perClient: [][]op{writer, reader}, distinct: tab.reqs}
}

// fullCuboids are the 16 unconstrained whole-cuboid queries the ingest
// workload's final oracle check issues.
func fullCuboids() []serve.Request {
	out := make([]serve.Request, 16)
	for i := range out {
		cub, _ := sweepCuboid(i)
		out[i] = serve.Request{Cuboid: cub}
	}
	return out
}

// buildStreams dispatches on the workload name.
func buildStreams(workload string, cfg dataset.DBLPConfig, seed int64, appends int) streams {
	switch workload {
	case wlScan:
		return scanStreams(cfg, seed)
	case wlIngest:
		return ingestStreams(cfg, seed, appends)
	default: // serve-hot, and serve-shard replaying it
		return hotStreams(cfg, seed)
	}
}
