// Command bench is the one benchmark of the X³ repository: five workloads
// — four that drive a live x3serve over loopback HTTP in a closed loop and
// one that runs the paper's cube algorithms in-process — each reported end
// to end (gated, see BENCHMARK.json) and, in a separate traced run, layer
// by layer. README.md says why each workload exists and what every metric
// means; run it through bench/run.sh, which builds it and the server.
//
//	bench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//	bench/run.sh                      # all workloads, untraced then traced
//	bench/run.sh -calibrate 10        # run-to-run spread next to the bounds
//	bench/run.sh -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
)

func main() {
	var (
		workload  = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		seed      = flag.Int64("seed", 1, "seed of the corpus and the request streams (same seed, same inputs)")
		seconds   = flag.Float64("seconds", 10, "measured seconds per run (warm-up comes on top)")
		trace     = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
		calibrate = flag.Int("calibrate", 0, "repeat every workload N times on one seed and write each end-to-end metric's median, quartiles and spread next to its bound")
		compare   = flag.Bool("compare", false, "compare two calibration files given as arguments: one row per workload × end-to-end metric")
		smoke     = flag.Bool("smoke", false, "tiny corpus and one set-up per run, for a fast functional pass")
		x3serve   = flag.String("x3serve", filepath.Join(".bench_build", "x3serve"), "x3serve binary the serving workloads run as a child (bench/run.sh builds it here)")
		outDir    = flag.String("out-dir", filepath.Join("bench", "out"), "directory for traces, result files and scratch")
		out       = flag.String("out", "", "-calibrate: file to write (default <out-dir>/calibration-<sha>.json)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two calibration files"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, sz: fullSizes, x3serve: *x3serve, outDir: *outDir}
	if *smoke {
		cfg.sz = smokeSizes
	}
	names := workloadNames
	if *workload != "all" {
		if !slices.Contains(workloadNames, *workload) {
			fatal(fmt.Errorf("unknown workload %q (want %s or all)", *workload, strings.Join(workloadNames, ", ")))
		}
		names = []string{*workload}
	}

	if *calibrate > 0 {
		path := *out
		if path == "" {
			path = filepath.Join(*outDir, "calibration-"+gitSHA()+".json")
		}
		if err := runCalibration(ctx, cfg, names, *calibrate, path); err != nil {
			fatal(err)
		}
		return
	}

	// A single workload is the contract's form: one run, and the last line
	// of standard output is its JSON object. "all" runs every workload
	// untraced and then traced and keeps the lot in one result file.
	traces := []bool{cfg.trace}
	if *workload == "all" {
		traces = []bool{false, true}
	}
	var results []*runResult
	ok := true
	for _, tr := range traces {
		for _, name := range names {
			cfg.workload, cfg.trace = name, tr
			res, err := runOne(ctx, cfg)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			report(os.Stdout, res)
			results = append(results, res)
			ok = ok && res.Correct
		}
	}
	name := fmt.Sprintf("result-%s-%d.json", gitSHA(), *seed)
	if *workload != "all" {
		name = fmt.Sprintf("result-%s-%d-%s-t%d.json", gitSHA(), *seed, *workload, *trace)
	}
	if err := writeJSONFile(filepath.Join(*outDir, name), results); err != nil {
		fatal(err)
	}
	if *workload != "all" {
		if err := contractLine(os.Stdout, results[0]); err != nil {
			fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne runs one workload once.
func runOne(ctx context.Context, cfg runConfig) (*runResult, error) {
	var (
		res *runResult
		err error
	)
	switch {
	case cfg.workload == wlBatch:
		res, err = runBatch(ctx, cfg)
	case cfg.trace:
		res, err = runServingTraced(ctx, cfg)
	default:
		res, err = runServing(ctx, cfg)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && len(res.Notes) == 0
	res.Info["nproc"] = runtime.NumCPU()
	res.Info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	res.Info["seconds"] = cfg.seconds
	res.Info["fail_ratio"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	return res, nil
}

// report prints one line per metric — workload metric value unit — after
// the sizes and settings the numbers were measured under.
func report(w io.Writer, res *runResult) {
	mode := "untraced"
	if res.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s seed %d (%s)\n", res.Workload, res.Seed, mode)
	for _, k := range sortedKeys(res.Info) {
		fmt.Fprintf(w, "#   %s = %v\n", k, res.Info[k])
	}
	for _, note := range res.Notes {
		fmt.Fprintf(w, "# FAILED: %s\n", note)
	}
	for _, set := range []map[string]metric{res.Metrics, res.Extra} {
		for _, k := range sortedKeys(set) {
			fmt.Fprintf(w, "%s %s %.6g %s\n", res.Workload, k, set[k].Value, set[k].Unit)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// contractLine prints the run as the one JSON object the benchmark
// contract reads from the last line of standard output.
func contractLine(w io.Writer, res *runResult) error {
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// gitSHA names the commit in result file names; a checkout that is not a
// git repository (the benchmark driver's) gets "nogit".
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "nogit"
	}
	return strings.TrimSpace(string(out))
}

// runCalibration repeats every workload n times on one seed and writes
// each end-to-end metric's values, median, quartiles and spread next to
// its bound. A bound narrower than twice the spread is flagged with the
// bound that would clear it; a spread wider than the bound marks the
// pairing unresolved.
func runCalibration(ctx context.Context, cfg runConfig, names []string, n int, path string) error {
	cal := calibration{SHA: gitSHA(), Seed: cfg.seed, Runs: n, Seconds: cfg.seconds}
	cfg.trace = false
	for _, name := range names {
		cfg.workload = name
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, err := runOne(ctx, cfg)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, i+1, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s run %d: incorrect: %s", name, i+1, strings.Join(res.Notes, "; "))
			}
			for _, d := range endToEnd {
				values[d.Name] = append(values[d.Name], res.Metrics[d.Name].Value)
			}
			fmt.Fprintf(os.Stderr, "calibrate: %s run %d/%d done\n", name, i+1, n)
		}
		for _, d := range endToEnd {
			row := newCalRow(name, d, values[d.Name])
			cal.Rows = append(cal.Rows, row)
			flag := ""
			switch {
			case row.Unresolved:
				flag = "  UNRESOLVED: spread exceeds the bound"
			case row.Narrow:
				flag = "  NARROW: bound is under twice the spread"
			}
			if row.Narrow && row.SuggestedBound > d.Bound {
				flag += fmt.Sprintf("; %.3f would clear it", row.SuggestedBound)
			}
			fmt.Printf("%s %s median %.6g %s  q1 %.6g  q3 %.6g  spread %.4f  bound %.2f%s\n",
				name, d.Name, row.Median, d.Unit, row.Q1, row.Q3, row.Spread, d.Bound, flag)
		}
	}
	return writeJSONFile(path, cal)
}
