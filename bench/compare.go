package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// calRow is one workload × end-to-end metric of a calibration: the runs'
// values with their median, quartiles and spread, next to the bound.
type calRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Bound    float64   `json:"bound"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"`
	Values   []float64 `json:"values"`
	// Unresolved marks a metric whose run-to-run spread is wider than its
	// bound on this workload: a comparison cannot tell a regression from
	// noise there. Narrow marks a bound under twice the spread;
	// SuggestedBound is then the bound that would clear that margin, capped
	// at the 0.25 the benchmark contract allows (so it may equal the bound).
	Unresolved     bool    `json:"unresolved,omitempty"`
	Narrow         bool    `json:"narrow,omitempty"`
	SuggestedBound float64 `json:"suggested_bound,omitempty"`
}

// calibration is the file -calibrate writes and -compare reads.
type calibration struct {
	SHA     string   `json:"sha"`
	Seed    int64    `json:"seed"`
	Runs    int      `json:"runs"`
	Seconds float64  `json:"seconds"`
	Rows    []calRow `json:"rows"`
}

// newCalRow summarizes one metric's values over the runs.
func newCalRow(workload string, d metricDef, values []float64) calRow {
	q1, q2, q3 := quartiles(values)
	row := calRow{
		Workload: workload, Metric: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound,
		Median: q2, Q1: q1, Q3: q3, Spread: spread(values), Values: values,
	}
	row.Unresolved = row.Spread > d.Bound
	if row.Narrow = d.Bound < 2*row.Spread; row.Narrow {
		row.SuggestedBound = min(2*row.Spread, 0.25)
	}
	return row
}

func readCalibration(path string) (*calibration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c calibration
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// Verdicts of the compare rule.
const (
	verdictBetter     = "better"
	verdictNoWorse    = "no worse"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's runs on a change (b) with its runs on the
// baseline (a). Where either side's spread is wider than the bound the
// pairing is unresolved, not unchanged. Otherwise b is worse when its
// median is worse than a's by more than the bound, better when it is
// better by more than the bound, and no worse in between: the bound is
// what two sets of runs taken minutes apart can resolve (two sets of one
// commit differ by up to half of it on this sandbox, and by more than
// either set's own spread). A gain smaller than that needs interleaved
// pairs of runs, which two files cannot give. change is b's median
// relative to a's, signed so that positive is worse.
func judge(a, b calRow) (verdict string, change float64) {
	if a.Median != 0 {
		change = (b.Median - a.Median) / a.Median
	}
	if a.Better == "higher" {
		change = -change
	}
	switch {
	case a.Spread > a.Bound || b.Spread > a.Bound:
		return verdictUnresolved, change
	case change > a.Bound:
		return verdictWorse, change
	case -change > a.Bound:
		return verdictBetter, change
	}
	return verdictNoWorse, change
}

// compareFiles prints one row per workload × end-to-end metric, every
// ratio with its base.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readCalibration(pathA)
	if err != nil {
		return err
	}
	b, err := readCalibration(pathB)
	if err != nil {
		return err
	}
	rowsB := map[string]calRow{}
	for _, r := range b.Rows {
		rowsB[r.Workload+"/"+r.Metric] = r
	}
	fmt.Fprintf(w, "base %s (%d runs, seed %d)  vs  %s (%d runs, seed %d)\n", a.SHA, a.Runs, a.Seed, b.SHA, b.Runs, b.Seed)
	fmt.Fprintf(w, "%-13s %-15s %-10s %14s %14s %9s %8s %8s %7s\n",
		"workload", "metric", "verdict", "base median", "new median", "change", "spread a", "spread b", "bound")
	for _, ra := range a.Rows {
		rb, ok := rowsB[ra.Workload+"/"+ra.Metric]
		if !ok {
			continue
		}
		verdict, change := judge(ra, rb)
		fmt.Fprintf(w, "%-13s %-15s %-10s %14.6g %14.6g %+8.2f%% %7.2f%% %7.2f%% %6.0f%%  (%s; positive change is worse)\n",
			ra.Workload, ra.Metric, verdict, ra.Median, rb.Median, 100*change, 100*ra.Spread, 100*rb.Spread, 100*ra.Bound, ra.Unit)
	}
	return nil
}
