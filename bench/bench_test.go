package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"x3/internal/dataset"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileAndMedian(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(s, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", s, c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of even sample = %v, want 2.5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of empty sample = %v, want 0", got)
	}
}

// The expected values are Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 23, 38},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestWindowedTailIgnoresOneStall(t *testing.T) {
	samples := make([]float64, 5*minWindow)
	for i := range samples {
		samples[i] = 1
	}
	for i := 100; i < 160; i++ { // a stall confined to the first window
		samples[i] = 50
	}
	tail, beyond := windowedTail(samples, 0.99)
	if !near(tail, 1) {
		t.Errorf("windowed p99 = %v, want 1: one window's stall must not set the run's tail", tail)
	}
	if beyond != minWindow/100 {
		t.Errorf("samples beyond the p99 per window = %d, want %d", beyond, minWindow/100)
	}
	// Too few samples for windows of minWindow: the whole run's quantile.
	short := samples[:minWindow]
	if tail, _ := windowedTail(short, 0.99); !near(tail, 50) {
		t.Errorf("p99 of a short sample = %v, want the plain quantile 50", tail)
	}
	if got := len(windowQuantiles(samples[:3*minWindow], 0.5)); got != 3 {
		t.Errorf("%d windows for 3*minWindow samples, want 3", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	// client 0..100 → handler 10..90 → backend 20..80 → two overlapping
	// replica legs 25..60 and 40..75, and a stray child that outlives its
	// parent (clipped).
	spans := []Span{
		{ID: 1, Parent: 0, Name: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "handler", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "backend", Start: 20, End: 80},
		{ID: 4, Parent: 3, Name: "replica", Start: 25, End: 60},
		{ID: 5, Parent: 3, Name: "replica", Start: 40, End: 75},
		{ID: 6, Parent: 4, Name: "late", Start: 55, End: 70},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 20, 2: 20, 3: 10, 4: 30, 5: 35, 6: 15}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
}

func TestRecorderRecordsOnlyTaggedRequests(t *testing.T) {
	rec := newRecorder()
	_, end := rec.start(context.Background(), "untagged")
	end()
	ctx, endRoot := rec.start(withRequest(context.Background(), 7, 0), "root")
	_, endKid := rec.start(ctx, "kid")
	endKid()
	endRoot()
	spans := rec.snapshot()
	if len(spans) != 2 || spans[0].Name != "root" || spans[1].Parent != spans[0].ID || spans[1].Req != 7 {
		t.Errorf("spans = %+v, want root and its child, both of request 7", spans)
	}
	var none *Recorder
	if _, end := none.start(withRequest(context.Background(), 1, 0), "x"); end == nil || none.snapshot() != nil {
		t.Error("a nil recorder must accept start and record nothing")
	}
}

func TestStreamsAreDeterministicPerSeed(t *testing.T) {
	cfg := dataset.DefaultDBLPConfig(1000, 1)
	for _, w := range []string{wlHot, wlScan, wlIngest, wlShard} {
		a := buildStreams(w, cfg, 42, 50)
		b := buildStreams(w, cfg, 42, 50)
		other := buildStreams(w, cfg, 43, 50)
		if !sameBodies(a, b) {
			t.Errorf("%s: same seed gave different streams", w)
		}
		if sameBodies(a, other) {
			t.Errorf("%s: different seeds gave the same streams", w)
		}
		if len(a.perClient) != clients {
			t.Errorf("%s: %d client streams, want %d", w, len(a.perClient), clients)
		}
	}
	if !sameBodies(buildStreams(wlHot, cfg, 9, 0), buildStreams(wlShard, cfg, 9, 0)) {
		t.Error("serve-shard must replay serve-hot's stream byte for byte")
	}
}

func sameBodies(a, b streams) bool {
	if len(a.perClient) != len(b.perClient) {
		return false
	}
	for c := range a.perClient {
		if len(a.perClient[c]) != len(b.perClient[c]) {
			return false
		}
		for i := range a.perClient[c] {
			if !bytes.Equal(a.perClient[c][i].body, b.perClient[c][i].body) {
				return false
			}
		}
	}
	return true
}

func TestJudgeVerdicts(t *testing.T) {
	base := calRow{Better: "lower", Bound: 0.10, Median: 100, Spread: 0.02}
	row := func(median, spread float64) calRow {
		return calRow{Better: "lower", Bound: 0.10, Median: median, Spread: spread}
	}
	cases := []struct {
		name string
		a, b calRow
		want string
	}{
		{"better by more than the bound", base, row(85, 0.02), verdictBetter},
		{"better but inside the bound", base, row(95, 0.02), verdictNoWorse},
		{"inside the noise", base, row(101, 0.02), verdictNoWorse},
		{"worse but inside the bound", base, row(108, 0.02), verdictNoWorse},
		{"worse by more than the bound", base, row(115, 0.02), verdictWorse},
		{"base too noisy to tell", row(100, 0.15), row(130, 0.02), verdictUnresolved},
		{"change too noisy to tell", base, row(130, 0.15), verdictUnresolved},
	}
	for _, c := range cases {
		if got, _ := judge(c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// For a higher-is-better metric a drop is the regression.
	up := calRow{Better: "higher", Bound: 0.10, Median: 1000, Spread: 0.01}
	if got, change := judge(up, calRow{Median: 850, Spread: 0.01}); got != verdictWorse || !near(change, 0.15) {
		t.Errorf("throughput drop: verdict %q change %v, want worse 0.15", got, change)
	}
	if got, _ := judge(up, calRow{Median: 1150, Spread: 0.01}); got != verdictBetter {
		t.Errorf("throughput gain: verdict %q, want better", got)
	}
}

func TestCalRowFlagsNarrowBounds(t *testing.T) {
	d := metricDef{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	steady := newCalRow("w", d, []float64{100, 101, 100, 99, 100, 101, 99, 100})
	if steady.Unresolved || steady.Narrow {
		t.Errorf("steady metric flagged: %+v", steady)
	}
	narrow := newCalRow("w", d, []float64{100, 104, 96, 103, 97, 104, 96, 100})
	if narrow.Unresolved || !narrow.Narrow || !near(narrow.SuggestedBound, 0.15) {
		t.Errorf("bound under twice the spread must be flagged, not unresolved: %+v", narrow)
	}
	noisy := newCalRow("w", d, []float64{100, 130, 70, 125, 75, 130, 70, 100})
	if !noisy.Unresolved || noisy.SuggestedBound != 0.25 {
		t.Errorf("spread over the bound must be unresolved with the capped suggestion: %+v", noisy)
	}
}

// BENCHMARK.json at the repository root is the contract; the metric and
// workload tables compiled into the benchmark must say the same.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, code has %v", names, workloadNames)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v, code has %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the code's table")
	}
}

// TestSmoke runs all five workloads, untraced and traced, on a tiny
// corpus with the oracle on: every metric of the contract is reported,
// nothing fails, and the traces show the layers where they belong.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run builds and drives x3serve")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "x3serve")
	if out, err := exec.Command("go", "build", "-o", bin, "x3/cmd/x3serve").CombinedOutput(); err != nil {
		t.Fatalf("building x3serve: %v\n%s", err, out)
	}
	for _, trace := range []bool{false, true} {
		for _, w := range workloadNames {
			cfg := runConfig{workload: w, seed: 3, seconds: 1, trace: trace, sz: smokeSizes, x3serve: bin, outDir: dir}
			res, err := runOne(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d notes=%v", w, trace, res.Correct, res.Failed, res.Attempted, res.Notes)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics reported, contract lists %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q, want %q", w, trace, d.Name, m.Unit, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, d.Name, m.Value)
				}
			}
			if !trace {
				continue
			}
			m := res.Metrics
			if (m["shard.coord_self_ms"].Value > 0) != (w == wlShard) {
				t.Errorf("%s: shard.coord_self_ms = %v; the coordinator belongs to serve-shard alone", w, m["shard.coord_self_ms"].Value)
			}
			if (m["wal.append_ms"].Value > 0) != (w == wlIngest) || (m["serve.compact_runs"].Value > 0) != (w == wlIngest) {
				t.Errorf("%s: wal %v compactions %v; wal and compaction belong to serve-ingest alone", w, m["wal.append_ms"].Value, m["serve.compact_runs"].Value)
			}
			if (m["cube.TD.treebank.s"].Value > 0) != (w == wlBatch) || (m["serve.answer_ms"].Value > 0) == (w == wlBatch) {
				t.Errorf("%s: cube and serving spans are mixed up", w)
			}
		}
	}
}
