package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"x3/internal/dataset"
	"x3/internal/match"
	"x3/internal/obs"
)

// TestConcurrentQueriesDuringRefresh hammers a store with mixed point and
// slice queries while refreshes fold new facts in — the `make race`
// workload for the serving layer. Every answer must be internally
// consistent: a whole-lattice-bottom total below the pre-refresh fact
// count would be the tell of a torn swap. Nothing may race or panic.
func TestConcurrentQueriesDuringRefresh(t *testing.T) {
	axes := mixedAxes()
	lat, set, _ := treebankWorkload(t, 31, 60, axes)
	reg := obs.New()
	s, err := BuildDir(t.TempDir(), lat, set,
		Options{Registry: reg, Views: 3, BlockCells: 16, CacheBytes: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var baseline float64
	bottom, err := s.Answer(context.Background(), Query{Point: lat.Bottom()})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range bottom.Rows {
		baseline += r.State.Sum
	}

	const (
		queriers  = 8
		perWorker = 40
		refreshes = 4
	)
	var wg sync.WaitGroup
	errs := make(chan error, queriers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < refreshes; i++ {
			delta := dataset.Treebank(dataset.TreebankConfig{Seed: int64(100 + i), Facts: 20, Axes: axes})
			if _, err := s.RefreshDoc(context.Background(), delta); err != nil {
				errs <- err
				return
			}
		}
	}()

	points := lat.Points()
	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				p := points[(w*perWorker+i)%len(points)]
				q := Query{Point: p}
				if i%3 == 0 {
					// Point/slice flavour: pin the first live axis to
					// whatever the first row of the open slice holds.
					if live := lat.LiveAxes(p); len(live) > 0 {
						open, err := s.Answer(context.Background(), Query{Point: p})
						if err != nil {
							errs <- err
							return
						}
						if len(open.Rows) > 0 {
							q.Where = map[int]match.ValueID{live[0]: open.Rows[0].Key[0]}
						}
					}
				}
				ans, err := s.Answer(context.Background(), q)
				if err != nil {
					errs <- err
					return
				}
				if len(q.Where) == 0 && lat.ID(p) == lat.ID(lat.Bottom()) {
					var sum float64
					for _, r := range ans.Rows {
						sum += r.State.Sum
					}
					if sum < baseline {
						errs <- fmt.Errorf("torn answer: bottom cuboid total %g below pre-refresh baseline %g", sum, baseline)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := reg.Counter("serve.refresh.runs").Value(); got != refreshes {
		t.Fatalf("recorded %d refreshes, want %d", got, refreshes)
	}
}
