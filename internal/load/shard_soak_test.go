package load

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"x3/internal/admit"
	"x3/internal/dataset"
	"x3/internal/fault"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/obs"
	"x3/internal/serve"
	"x3/internal/shard"
)

// TestSoakShardedFailover is the sharded counterpart of the soak (also
// race-run): waves of concurrent queries hammer a 3-shard × 2-replica
// coordinator whose first replica of every shard has a flaky fault
// boundary, so failover, health marking, hedging and probe re-admission
// all churn under the load. Appends apply between waves (scatter legs
// of one query may otherwise observe different shards at different
// append prefixes — a torn read the single-store oracle cannot model),
// so every successful answer must be byte-equal to the oracle at its
// wave's exact prefix. A sibling replica is always healthy, so a
// Partial answer is as disqualifying as a wrong one.
func TestSoakShardedFailover(t *testing.T) {
	const (
		nAppends = 4
		shards   = 3
		workers  = 4
		perWave  = 30
	)
	appends := make([][]byte, nAppends)
	for i := range appends {
		appends[i] = testWorkload.Append(i)
	}
	oracle := buildOracle(t, appends)

	doc := dataset.DBLP(dataset.DefaultDBLPConfig(40, 7))
	lat, err := lattice.New(dataset.DBLPQuery())
	if err != nil {
		t.Fatal(err)
	}
	set, err := match.Evaluate(doc, lat)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	coord, err := shard.New(t.TempDir(), lat, set, shard.Options{
		Shards: shards, Replicas: 2, ProbeEvery: 4, Registry: reg,
		HedgeAfter: 500 * time.Microsecond,
		Store:      serve.Options{Views: 5, BlockCells: 16, FlushCells: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	for si := 0; si < shards; si++ {
		coord.SetReplicaFault(si, 0, fault.New(fault.Config{Seed: int64(40 + si), ErrEvery: 3}))
	}
	target := serveEdge(t, coord, reg, admit.New(admit.Config{MaxInFlight: 32}))

	var shed, failedOver atomic.Int64
	for wave := 0; wave <= nAppends; wave++ {
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(wave*100 + w)))
				ctx := context.Background()
				for i := 0; i < perWave; i++ {
					qi := rng.Intn(len(soakQueries))
					res := target.Do(ctx, Op{
						Kind: OpPoint, Tenant: fmt.Sprintf("reader%d", w),
						Request: soakQueries[qi],
					})
					switch {
					case res.OK() && res.Partial:
						errs <- fmt.Errorf("wave %d worker %d query %d: Partial answer while every shard has a healthy sibling: %+v",
							wave, w, qi, res.Resp.Missing)
						return
					case res.OK():
						if got := canonical(res.Resp); got != oracle[wave][qi] {
							errs <- fmt.Errorf("wave %d worker %d query %d: silent wrong answer under replica faults:\ngot:\n%s\nwant:\n%s",
								wave, w, qi, got, oracle[wave][qi])
							return
						}
					case res.Status == http.StatusServiceUnavailable || res.Status == http.StatusTooManyRequests:
						shed.Add(1)
					default:
						errs <- fmt.Errorf("wave %d worker %d query %d: unexplained status %d code %s",
							wave, w, qi, res.Status, res.Code)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if wave < nAppends {
			res := target.Do(context.Background(), Op{Kind: OpAppend, Tenant: "writer", Seq: wave, Body: appends[wave]})
			if !res.OK() {
				t.Fatalf("append %d: status %d code %s", wave, res.Status, res.Code)
			}
		}
	}
	failedOver.Store(reg.Counter("shard.failover").Value())
	if failedOver.Load() == 0 {
		t.Error("flaky replica boundaries never forced a failover — the soak did not exercise the robustness path")
	}
	if got := reg.Counter("shard.queries").Value(); got < int64((nAppends+1)*workers*perWave) {
		t.Errorf("coordinator saw %d queries, want at least %d", got, (nAppends+1)*workers*perWave)
	}
	t.Logf("sharded soak: %d queries, %d shed, %d failovers, %d hedges fired, %d replicas marked down, %d probes ok",
		reg.Counter("shard.queries").Value(), shed.Load(), failedOver.Load(),
		reg.Counter("shard.hedge.fired").Value(), reg.Counter("shard.replica.down").Value(),
		reg.Counter("shard.probe.ok").Value())
}
