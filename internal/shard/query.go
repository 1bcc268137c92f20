package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"x3/internal/agg"
	"x3/internal/pattern"
	"x3/internal/serve"
)

// ServeRequest scatter-gathers a query over every shard and re-aggregates
// the partial cells: the shards' rows, gathered in shard order, fold
// through serve.Fold, so equal groups merge in shard order. Each shard
// leg runs under its own deadline with failover and hedging
// (queryShard); shards whose replicas are all unreachable are reported in
// Response.Missing and the answer is marked Partial — the rows are exact
// for the facts that answered, and the lost key ranges are named instead
// of silently dropped. A request every shard rejects as a bad request is
// returned as that error, and a coordinator with zero answering shards
// returns an error rather than an empty "answer".
func (c *Coordinator) ServeRequest(ctx context.Context, req serve.Request) (*serve.Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	c.cQueries.Inc()

	type leg struct {
		ans *serve.CellAnswer
		err error
	}
	legs := make([]leg, len(c.shards))
	var wg sync.WaitGroup
	for i := range c.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			legs[i].ans, legs[i].err = c.queryShard(ctx, c.shards[i], req)
		}(i)
	}
	wg.Wait()

	var (
		missing  []serve.MissingShard
		answered *serve.CellAnswer
		worst    serve.PlanKind
		degraded bool
		lastErr  error
	)
	n := 0
	for i := range legs {
		if legs[i].err == nil {
			n += len(legs[i].ans.Rows)
		}
	}
	rows := make([]serve.CellRow, 0, n) // every answering shard's rows, in shard order
	for i := range legs {
		if err := legs[i].err; err != nil {
			// The client's fault fails the whole query — retrying another
			// shard cannot fix a malformed request — and a cancelled
			// parent context is the caller's own deadline, not a shard
			// loss.
			if errors.Is(err, serve.ErrBadRequest) {
				return nil, err
			}
			if ctx.Err() != nil {
				return nil, err
			}
			lastErr = err
			missing = append(missing, serve.MissingShard{
				Shard:    i,
				KeyRange: KeyRange(i, len(c.shards)),
				Reason:   err.Error(),
			})
			continue
		}
		a := legs[i].ans
		if answered == nil {
			answered = a
		}
		if a.Plan > worst {
			worst = a.Plan
		}
		degraded = degraded || a.Degraded
		rows = append(rows, a.Rows...)
	}
	if answered == nil {
		return nil, fmt.Errorf("shard: all %d shards failed: %w", len(c.shards), lastErr)
	}

	merged := &serve.CellAnswer{
		Cuboid:   answered.Cuboid,
		Plan:     worst,
		Degraded: degraded,
		Rows: serve.Fold(rows, func(a, b serve.CellRow) int { return compareValues(a.Values, b.Values) },
			func(r *serve.CellRow) *agg.State { return &r.State }),
	}
	resp := merged.Finalize(c.aggFn())
	resp.Plan = "scatter+" + worst.String()
	if len(missing) > 0 {
		resp.Partial = true
		resp.Missing = missing
		c.cPartial.Inc()
		c.cPartialShards.Add(int64(len(missing)))
	}
	c.hAnswer.ObserveDuration(time.Since(start))
	return resp, nil
}

// compareValues orders decoded group tuples lexicographically — the
// coordinator's canonical row order (per-shard ValueID order is an
// interning accident and differs between stores). One strings.Compare
// per value: the gather's sort is dominated by these comparisons.
func compareValues(a, b []string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := strings.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// aggFn resolves the lattice aggregate. A fake-replica coordinator
// (NewWithReplicas with a nil lattice) falls back to the zero AggFunc
// (COUNT) — its tests assert on states and counters, not finals.
func (c *Coordinator) aggFn() pattern.AggFunc {
	if c.lat != nil {
		return c.lat.Query.Agg
	}
	return pattern.AggFunc(0)
}

// queryShard answers one shard's leg of a scattered query: primary
// attempt, a hedged second attempt after hedgeDelay, and bounded
// failover launches on hard errors — first usable answer wins and every
// other in-flight attempt is cancelled. Health bookkeeping: a replica's
// hard error counts against it, a success clears it; every ProbeEvery-th
// query to the shard launches async re-admission probes at down
// replicas.
func (c *Coordinator) queryShard(ctx context.Context, sh *shardState, req serve.Request) (*serve.CellAnswer, error) {
	qn := sh.queries.Add(1)
	if c.opt.ProbeEvery > 0 && qn%int64(c.opt.ProbeEvery) == 0 {
		c.probeDown(ctx, sh)
	}
	c.cScatter.Inc()
	start := time.Now()

	sctx, cancel := context.WithTimeout(ctx, c.opt.ShardDeadline)
	defer cancel()

	cands := sh.candidates()
	if len(cands) == 0 {
		return nil, fmt.Errorf("shard %d: no serviceable replica (all stale)", sh.id)
	}

	type attempt struct {
		idx    int // index into cands
		hedged bool
		ans    *serve.CellAnswer
		err    error
	}
	results := make(chan attempt, len(cands))
	launched, failovers, hedges := 0, 0, 0
	launch := func(hedged bool) {
		k := launched
		launched++
		rs := sh.replicas[cands[k]]
		go func() {
			a := attempt{idx: k, hedged: hedged}
			if err := rs.boundary().Call("shard.replica.query"); err != nil {
				a.err = err
			} else {
				a.ans, a.err = rs.r.Query(sctx, req)
			}
			results <- a
		}()
	}
	launch(false)
	pending := 1

	var hedgeC <-chan time.Time
	if launched < len(cands) {
		t := time.NewTimer(c.hedgeDelay(sh))
		defer t.Stop()
		hedgeC = t.C
	}

	var firstErr error
	finish := func(err error) (*serve.CellAnswer, error) {
		// Every hedge that did not commit an answer was wasted; the
		// shard.hedge counters must reconcile as fired == won + wasted.
		c.cHedgeWasted.Add(int64(hedges))
		return nil, err
	}
	for pending > 0 {
		select {
		case a := <-results:
			pending--
			rs := sh.replicas[cands[a.idx]]
			if a.err == nil {
				c.markSuccess(rs)
				if a.hedged {
					c.cHedgeWon.Inc()
					c.cHedgeWasted.Add(int64(hedges - 1))
				} else {
					c.cHedgeWasted.Add(int64(hedges))
				}
				// Winner committed: cancel tears down every losing
				// attempt's context (the existing ctx plumbing reaches
				// into the store's read paths).
				sh.lat.ObserveDuration(time.Since(start))
				return a.ans, nil
			}
			if errors.Is(a.err, serve.ErrBadRequest) {
				return finish(a.err)
			}
			if sctx.Err() != nil {
				return finish(fmt.Errorf("shard %d: %w", sh.id, sctx.Err()))
			}
			if !isCtxErr(a.err) {
				c.markFailure(rs)
			}
			if firstErr == nil {
				firstErr = a.err
			}
			if launched < len(cands) && failovers < c.opt.Retries {
				failovers++
				c.cFailover.Inc()
				launch(false)
				pending++
			}
		case <-hedgeC:
			hedgeC = nil
			if launched < len(cands) {
				hedges++
				c.cHedgeFired.Inc()
				launch(true)
				pending++
			}
		case <-sctx.Done():
			return finish(fmt.Errorf("shard %d: %w", sh.id, sctx.Err()))
		}
	}
	return finish(fmt.Errorf("shard %d: all replicas failed: %w", sh.id, firstErr))
}

// hedgeDelay picks when the shard's second request fires: the fixed
// HedgeAfter when configured, otherwise the shard's observed p99 —
// hedging the slowest 1% of requests — clamped to [HedgeFloor,
// ShardDeadline/2]. Before enough samples exist the floor applies.
func (c *Coordinator) hedgeDelay(sh *shardState) time.Duration {
	if c.opt.HedgeAfter > 0 {
		return c.opt.HedgeAfter
	}
	d := c.opt.HedgeFloor
	if sh.lat.Count() >= hedgeWarmup {
		if p99 := time.Duration(sh.lat.Quantile(0.99)); p99 > d {
			d = p99
		}
	}
	if max := c.opt.ShardDeadline / 2; d > max {
		d = max
	}
	return d
}

// probeDown launches one async re-admission probe at each down (not
// stale) replica of sh. Probes run detached from the query's
// cancellation — the query that triggered them may finish first — but
// inside the shard deadline, and Close waits for them.
func (c *Coordinator) probeDown(ctx context.Context, sh *shardState) {
	for i, rs := range sh.replicas {
		rs.mu.Lock()
		due := rs.down && !rs.stale
		rs.mu.Unlock()
		if !due {
			continue
		}
		c.probes.Add(1)
		c.cProbe.Inc()
		go func(i int) {
			defer c.probes.Done()
			if err := c.Probe(context.WithoutCancel(ctx), sh.id, i); err == nil {
				c.cProbeOK.Inc()
			}
		}(i)
	}
}

// Probe issues one health-check query at replica ri of shard si through
// its fault boundary and applies the result to its health state: a
// success re-admits a down replica. The probe query addresses the
// lattice bottom — the cheapest cuboid — and its answer is discarded,
// never merged into a client response.
func (c *Coordinator) Probe(ctx context.Context, si, ri int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	pctx, cancel := context.WithTimeout(ctx, c.opt.ShardDeadline)
	defer cancel()
	rs := c.shards[si].replicas[ri]
	err := rs.boundary().Call("shard.replica.probe")
	if err == nil {
		_, err = rs.r.Query(pctx, serve.Request{})
	}
	if err != nil {
		if !isCtxErr(err) {
			c.markFailure(rs)
		}
		return err
	}
	c.markSuccess(rs)
	return nil
}
