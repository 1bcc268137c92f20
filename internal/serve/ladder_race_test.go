package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"x3/internal/cube"
	"x3/internal/dataset"
	"x3/internal/lattice"
	"x3/internal/obs"
)

// TestConcurrentLadderMaintenance hammers a delta-ladder store with
// concurrent appenders, queriers, a refresher, explicit flushes, and the
// background compaction loop — the `make race` workload for the
// incremental-maintenance path. Appends serialize through the
// maintenance lock in nondeterministic order, so the final check builds
// the oracle from the store's own fact table: however the interleaving
// landed, the ladder must serve exactly the cube of the facts it
// acknowledged.
func TestConcurrentLadderMaintenance(t *testing.T) {
	axes := mixedAxes()
	fxLat, err := lattice.New(dataset.TreebankQuery(axes))
	if err != nil {
		t.Fatal(err)
	}
	oracle := newLadderOracle(t, fxLat)
	baseDoc := dataset.Treebank(dataset.TreebankConfig{Seed: 61, Facts: 40, Axes: axes})
	baseSet := oracle.add(t, baseDoc)

	reg := obs.New()
	s, err := BuildDir(t.TempDir(), fxLat, baseSet, Options{
		Registry: reg, Views: 3, BlockCells: 16, CacheBytes: 512 << 10,
		FlushCells: 32, CompactAfter: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var loopDone sync.WaitGroup
	loopDone.Add(1)
	go func() {
		defer loopDone.Done()
		s.CompactLoop(ctx)
	}()

	const (
		appenders   = 2
		perAppender = 5
		queriers    = 4
		perQuerier  = 30
	)
	var wg sync.WaitGroup
	errs := make(chan error, appenders+queriers+2)

	bodies := make([][][]byte, appenders)
	for a := range bodies {
		for i := 0; i < perAppender; i++ {
			doc := dataset.Treebank(dataset.TreebankConfig{
				Seed: int64(1000 + a*perAppender + i), Facts: 15, Axes: axes,
			})
			bodies[a] = append(bodies[a], docBytes(t, doc))
		}
	}
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for _, body := range bodies[a] {
				if _, err := s.Append(context.Background(), body); err != nil {
					errs <- fmt.Errorf("appender %d: %w", a, err)
					return
				}
			}
		}(a)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		doc := dataset.Treebank(dataset.TreebankConfig{Seed: 2000, Facts: 10, Axes: axes})
		if _, err := s.RefreshDoc(context.Background(), doc); err != nil {
			errs <- fmt.Errorf("refresher: %w", err)
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := s.Flush(context.Background()); err != nil {
				errs <- fmt.Errorf("flusher: %w", err)
				return
			}
		}
	}()

	points := fxLat.Points()
	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perQuerier; i++ {
				p := points[(w*perQuerier+i)%len(points)]
				if _, err := s.Answer(context.Background(), Query{Point: p}); err != nil {
					errs <- fmt.Errorf("querier %d: %w", w, err)
					return
				}
			}
		}(w)
	}

	wg.Wait()
	cancel()
	loopDone.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiesce the ladder and check the served cube against the oracle of
	// the store's own acknowledged facts.
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := cube.RunOracle(fxLat, s.base, s.base.Dicts)
	if err != nil {
		t.Fatal(err)
	}
	wantFacts := 40 + appenders*perAppender*15 + 10
	if got := s.NumFacts(); got != wantFacts {
		t.Fatalf("store acknowledged %d facts, want %d", got, wantFacts)
	}
	for _, p := range fxLat.Points() {
		assertCuboidMatchesOracle(t, s, res, p)
	}
}
