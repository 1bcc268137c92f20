package shard

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"x3/internal/pattern"
	"x3/internal/serve"
)

// TestGatherFoldOrderInexactMeasures pins the order a 3-shard gather
// folds equal groups in: over measures whose sums depend on it, every
// SUM the coordinator answers is bit-equal to merging the shards' states
// into one accumulator per group in shard order — so a fold that
// reorders equal groups (an unstable sort) changes the bits.
func TestGatherFoldOrderInexactMeasures(t *testing.T) {
	lat, set, _ := treebankWorkload(t, 5, 600)
	lat.Query.Agg = pattern.Sum
	ms := []float64{0.1, 1e16, -1e16, 0.7, 3e-3, -0.2}
	for i, f := range set.Facts {
		f.Measure = ms[i%len(ms)]
	}
	var stores []*serve.Store
	var groups [][]Replica
	for si, part := range Partition(set, 3) {
		st, err := serve.Build(filepath.Join(t.TempDir(), "cube.x3ci"), lat, part, serve.Options{Views: 3, BlockCells: 16})
		if err != nil {
			t.Fatal(err)
		}
		stores = append(stores, st)
		groups = append(groups, []Replica{NewStoreReplica(fmt.Sprintf("s%d", si), st)})
	}
	c, err := NewWithReplicas(lat, groups, Options{ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for _, p := range lat.Points() {
		req := cuboidRequest(lat, p)
		got, err := c.ServeRequest(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		// The reference: one accumulator per group, merged into in shard
		// order, the groups then sorted by decoded values.
		acc := map[string]*serve.CellRow{}
		var want []*serve.CellRow
		for _, st := range stores {
			ca, err := st.AnswerCells(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range ca.Rows {
				k := strings.Join(r.Values, "\x1f")
				g, ok := acc[k]
				if !ok {
					g = &serve.CellRow{Values: r.Values}
					acc[k] = g
					want = append(want, g)
				}
				g.State.Merge(r.State)
			}
		}
		slices.SortFunc(want, func(a, b *serve.CellRow) int { return slices.Compare(a.Values, b.Values) })
		same := len(got.Rows) == len(want)
		for i := 0; same && i < len(want); i++ {
			same = slices.Equal(got.Rows[i].Values, want[i].Values) && got.Rows[i].Count == want[i].State.N &&
				math.Float64bits(got.Rows[i].Value) == math.Float64bits(want[i].State.Final(pattern.Sum))
		}
		if !same {
			t.Errorf("%s: gathered rows differ from the shard-order fold", lat.Label(p))
		}
	}
}
