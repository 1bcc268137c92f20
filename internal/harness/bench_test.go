package harness

import (
	"fmt"
	"testing"
	"time"
)

// runListEntry is one line of the batch run list.
type runListEntry struct {
	figure  string
	axes    int
	alg     string
	workers int
}

// runList is the batch benchmark's nine entries: the DBLP setting of
// Fig. 10 and the sparse, coverage-fails Treebank setting of Fig. 5 at five
// axes, all on one worker except the two-worker TDPAR.
var runList = []runListEntry{
	{"fig10", 4, "COUNTER", 1},
	{"fig10", 4, "BUC", 1},
	{"fig10", 4, "BUCCUST", 1},
	{"fig10", 4, "TD", 1},
	{"fig10", 4, "TDOPTALL", 1},
	{"fig10", 4, "TDPAR", 2},
	{"fig5", 5, "COUNTER", 1},
	{"fig5", 5, "BUC", 1},
	{"fig5", 5, "TD", 1},
}

// BenchmarkRunList times passes over the batch run list at scale 0.02, in
// process: one iteration is one pass, each entry reading its workload's
// match file afresh through RunAlgorithm. It reports ms/pass and each
// entry's mean ms. Preparing the two workloads is untimed.
func BenchmarkRunList(b *testing.B) {
	if testing.Short() {
		b.Skip("prepares two scale-0.02 workloads")
	}
	opt := Options{Scale: 0.02, Timeout: time.Minute, TmpDir: b.TempDir(), Seed: 1}
	workloads := map[string]*Workload{}
	for _, e := range runList {
		if workloads[e.figure] != nil {
			continue
		}
		cfg, err := FigureByID(e.figure)
		if err != nil {
			b.Fatal(err)
		}
		w, err := Prepare(cfg, opt, e.axes)
		if err != nil {
			b.Fatal(err)
		}
		defer w.Remove()
		workloads[e.figure] = w
	}
	perEntry := make([]time.Duration, len(runList))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, e := range runList {
			o := opt
			o.Workers = e.workers
			row, err := workloads[e.figure].RunAlgorithm(e.alg, o)
			if err != nil || row.DNF != "" {
				b.Fatalf("%s %s: %v %s", e.figure, e.alg, err, row.DNF)
			}
			perEntry[k] += time.Duration(row.Seconds * float64(time.Second))
		}
	}
	b.StopTimer()
	var pass time.Duration
	for k, e := range runList {
		pass += perEntry[k]
		name := e.alg
		if e.workers > 1 {
			name = fmt.Sprintf("%s%d", name, e.workers)
		}
		b.ReportMetric(perEntry[k].Seconds()*1000/float64(b.N), fmt.Sprintf("%s.%s-ms", name, e.figure))
	}
	b.ReportMetric(pass.Seconds()*1000/float64(b.N), "ms/pass")
}
