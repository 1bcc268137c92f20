package matchfile

import (
	"path/filepath"
	"testing"

	"x3/internal/dataset"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/pattern"
)

// BenchmarkEachPass measures one full streaming pass over a materialized
// match file — the unit cost COUNTER pays per partition pass — and
// reports it per fact as well.
func BenchmarkEachPass(b *testing.B) {
	axes := []dataset.AxisConfig{
		{Tag: "w0", Cardinality: 30, PRepeat: 0.3, Relax: pattern.RelaxSet(0).With(pattern.LND)},
		{Tag: "w1", Cardinality: 30, PMissing: 0.2, Relax: pattern.RelaxSet(0).With(pattern.LND)},
		{Tag: "w2", Cardinality: 30, Relax: pattern.RelaxSet(0).With(pattern.LND)},
	}
	doc := dataset.Treebank(dataset.TreebankConfig{Seed: 8, Facts: 10_000, Axes: axes})
	lat, err := lattice.New(dataset.TreebankQuery(axes))
	if err != nil {
		b.Fatal(err)
	}
	set, err := match.Evaluate(doc, lat)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.x3mf")
	if err := WriteFile(path, set); err != nil {
		b.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := r.Each(func(*match.Fact) error { n++; return nil })
		if err != nil || n != 10_000 {
			b.Fatalf("n=%d err=%v", n, err)
		}
	}
	b.SetBytes(r.BytesRead() / int64(b.N))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(r.NumFacts()), "ns/fact")
}
