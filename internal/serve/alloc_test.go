package serve

import (
	"context"
	"math/bits"
	"path/filepath"
	"testing"

	"x3/internal/dataset"
	"x3/internal/match"
)

// TestDirectAnswerAllocsConstantPerBlock: a direct answer allocates a
// constant number of times plus its result rows, whatever the number of
// blocks it reads. The same answers out of files cut into 2-cell blocks
// and into 256-cell blocks allocate equally, with the block cache off and
// with it warm — from a single-file store, and from a ladder store whose
// answers merge a base, two deltas and the memtable.
func TestDirectAnswerAllocsConstantPerBlock(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not deterministic under -race")
	}
	axes := cleanAxes(3)
	lat, set, _ := treebankWorkload(t, 5, 400, axes)
	finest := lat.Points()[0]
	for _, p := range lat.Points() {
		if len(lat.LiveAxes(p)) > len(lat.LiveAxes(finest)) {
			finest = p
		}
	}
	live := lat.LiveAxes(finest)
	ctx := context.Background()
	stores := []struct {
		name  string
		build func(opt Options) *Store
	}{
		{"file", func(opt Options) *Store {
			s, err := Build(filepath.Join(t.TempDir(), "cube.x3ci"), lat, set, opt)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"ladder", func(opt Options) *Store {
			opt.FlushCells, opt.CompactAfter = -1, -1
			s, err := BuildDir(t.TempDir(), lat, set, opt)
			if err != nil {
				t.Fatal(err)
			}
			for k := int64(1); k <= 3; k++ {
				doc := dataset.Treebank(dataset.TreebankConfig{Seed: 5 + k, Facts: 40, Axes: axes})
				if _, err := s.Append(ctx, docBytes(t, doc)); err != nil {
					t.Fatal(err)
				}
				if k == 3 {
					break
				}
				if err := s.Flush(ctx); err != nil {
					t.Fatal(err)
				}
			}
			if d, m := s.Generations(); d != 2 || m == 0 {
				t.Fatalf("ladder holds %d deltas and %d memtable cells, want 2 and some", d, m)
			}
			return s
		}},
	}
	for _, st := range stores {
		for _, cacheBytes := range []int64{-1, 0} {
			type count struct{ one, all, rows float64 }
			var counts []count
			for _, blockCells := range []int{2, 256} {
				s := st.build(Options{BlockCells: blockCells, CacheBytes: cacheBytes})
				defer s.Close()
				full, err := s.Answer(ctx, Query{Point: finest})
				if err != nil {
					t.Fatal(err)
				}
				if full.Plan != PlanDirect || len(full.Rows) < 2 {
					t.Fatalf("plan %s with %d rows; want a direct answer of several rows", full.Plan, len(full.Rows))
				}
				mid := full.Rows[len(full.Rows)/2].Key
				where := make(map[int]match.ValueID, len(live))
				for i, a := range live {
					where[a] = mid[i]
				}
				answer := func(q Query, rows int) float64 {
					return testing.AllocsPerRun(20, func() {
						ans, err := s.Answer(ctx, q)
						if err != nil || len(ans.Rows) != rows {
							t.Fatalf("answer: %d rows, %v; want %d", len(ans.Rows), err, rows)
						}
					})
				}
				c := count{
					one:  answer(Query{Point: finest, Where: where}, 1),
					all:  answer(Query{Point: finest}, len(full.Rows)),
					rows: float64(len(full.Rows)),
				}
				t.Logf("%s, cache %d, %d cells per block (%d base blocks): %.0f allocations for 1 row, %.0f for %.0f rows",
					st.name, cacheBytes, blockCells, s.rdr.NumBlocks(), c.one, c.all, c.rows)
				counts = append(counts, c)
			}
			if counts[0] != counts[1] {
				t.Errorf("%s, cache %d: allocations depend on the block count: %+v vs %+v", st.name, cacheBytes, counts[0], counts[1])
			}
			// Each extra row costs its key, plus the rows slice's doublings.
			c := counts[0]
			if extra := c.all - c.one; extra > c.rows+float64(bits.Len(uint(c.rows))) {
				t.Errorf("%s, cache %d: %.0f rows cost %.0f allocations over a 1-row answer", st.name, cacheBytes, c.rows, extra)
			}
		}
	}
}
