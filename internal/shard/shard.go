// Package shard is the sharded, replicated serving layer: N fact
// partitions × R replicas, each an independent delta-ladder serve.Store,
// behind a coordinator that scatter-gathers queries and re-aggregates
// the partial cells.
//
// Partitioning hashes each fact's decoded grouping values at every
// axis's most relaxed live state (the most-relaxed pattern's key axes),
// so the partitions are disjoint and complete — exactly the condition
// under which the planner's distributive agg.State merge re-aggregates
// a scattered answer byte-equal to a single-node store (X³ §3; the
// differential suite proves it rather than trusts it).
//
// The robustness core lives in the per-shard query path (query.go):
// a per-shard deadline, bounded failover retries against sibling
// replicas, a hedged second request after a p99-derived delay
// (first usable answer wins, the loser's context is cancelled), and
// replica health tracking with automatic failover and re-admission
// probes. A shard whose replicas are all unreachable degrades the
// answer to an explicit Partial naming the lost key range — never a
// silently fabricated total.
package shard

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"x3/internal/fault"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/obs"
	"x3/internal/serve"
)

// Defaults for the robustness knobs; each is overridable via Options.
const (
	defaultShardDeadline = 2 * time.Second
	defaultHedgeFloor    = 2 * time.Millisecond
	defaultDownAfter     = 3
	defaultProbeEvery    = 8
	defaultAppendRetries = 2
	// hedgeWarmup is how many per-shard latency samples the coordinator
	// wants before it trusts the observed p99 for the hedge delay.
	hedgeWarmup = 32
)

// Options configure a coordinator.
type Options struct {
	// Shards is the number of fact partitions N (default 1).
	Shards int
	// Replicas is the number of replicas R per shard (default 2).
	Replicas int
	// ShardDeadline bounds each shard's scatter leg, hedges and retries
	// included (default 2s).
	ShardDeadline time.Duration
	// Retries bounds failover launches against sibling replicas after a
	// replica error, per query (default: Replicas-1; negative disables).
	Retries int
	// HedgeAfter fixes the hedge delay; 0 derives it from the shard's
	// observed p99 latency, clamped to [HedgeFloor, ShardDeadline/2].
	HedgeAfter time.Duration
	// HedgeFloor is the lower clamp for the derived hedge delay
	// (default 2ms); also the delay used before enough samples exist.
	HedgeFloor time.Duration
	// DownAfter marks a replica down after this many consecutive
	// failures (default 3).
	DownAfter int
	// ProbeEvery launches an async re-admission probe at a shard's down
	// replicas every Nth query to that shard (default 8; negative
	// disables probing).
	ProbeEvery int
	// AppendRetries re-attempts a failed replica append this many times
	// before declaring the replica stale (default 2).
	AppendRetries int
	// Registry receives the shard.* counters and per-shard latency
	// histograms; nil mints a private registry so accounting (and the
	// hedge-delay estimate) still works.
	Registry *obs.Registry
	// Store configures each replica's underlying serve.Store.
	Store serve.Options
}

// withDefaults resolves zero values.
func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.ShardDeadline <= 0 {
		o.ShardDeadline = defaultShardDeadline
	}
	if o.Retries == 0 {
		o.Retries = o.Replicas - 1
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.HedgeFloor <= 0 {
		o.HedgeFloor = defaultHedgeFloor
	}
	if o.DownAfter <= 0 {
		o.DownAfter = defaultDownAfter
	}
	if o.ProbeEvery == 0 {
		o.ProbeEvery = defaultProbeEvery
	}
	if o.AppendRetries <= 0 {
		o.AppendRetries = defaultAppendRetries
	}
	if o.Registry == nil {
		o.Registry = obs.New()
	}
	return o
}

// Replica is one copy of one shard's store. Implementations must be safe
// for concurrent use; Query must honour ctx cancellation.
type Replica interface {
	// Label names the replica for topology and error reporting.
	Label() string
	// Query answers a request in mergeable form.
	Query(ctx context.Context, req serve.Request) (*serve.CellAnswer, error)
	// Append applies one XML document body durably.
	Append(ctx context.Context, body []byte) (int64, error)
	// Close releases the replica.
	Close() error
}

// replicaState is a Replica plus its health and fault boundary.
type replicaState struct {
	r Replica
	// inj is the per-replica boundary injector (error + latency at the
	// shard.replica.* sites), swappable at runtime so failure sweeps can
	// kill and revive replicas on a live coordinator.
	inj atomic.Pointer[fault.Injector]

	mu    sync.Mutex
	fails int
	down  bool
	// stale marks a replica that missed an append: it may be missing
	// facts, so it must never serve queries again (a probe cannot clear
	// it — only a rebuild can).
	stale bool
}

// boundary returns the current fault injector (nil = no injection).
func (rs *replicaState) boundary() *fault.Injector { return rs.inj.Load() }

// shardState is one fact partition: its replicas and query accounting.
type shardState struct {
	id       int
	replicas []*replicaState
	lat      *obs.HDR // shard.latency.<id>: per-shard answer latency
	queries  atomic.Int64
}

// Coordinator fans queries and appends out over the shard topology.
// All exported methods are safe for concurrent use.
type Coordinator struct {
	lat    *lattice.Lattice
	reg    *obs.Registry
	dir    string
	opt    Options
	shards []*shardState
	// facts counts base facts per shard (build-time; appends add to it
	// under factsMu). Topology reporting only.
	factsMu sync.Mutex
	facts   []int

	probes sync.WaitGroup
	// downN mirrors the shard.replicas.down gauge without a global
	// health lock.
	downN atomic.Int64

	cQueries, cScatter, cFailover         *obs.Counter
	cHedgeFired, cHedgeWon, cHedgeWasted  *obs.Counter
	cPartial, cPartialShards              *obs.Counter
	cReplicaDown, cReplicaUp, cStale      *obs.Counter
	cProbe, cProbeOK                      *obs.Counter
	cAppends, cAppendRecords, cAppendRetr *obs.Counter
	gDown                                 *obs.Gauge
	hAnswer                               *obs.HDR
}

// newCoordinator wires the common fields.
func newCoordinator(lat *lattice.Lattice, dir string, opt Options) *Coordinator {
	reg := opt.Registry
	c := &Coordinator{
		lat: lat, reg: reg, dir: dir, opt: opt,
		facts:          make([]int, opt.Shards),
		cQueries:       reg.Counter("shard.queries"),
		cScatter:       reg.Counter("shard.scatter"),
		cFailover:      reg.Counter("shard.failover"),
		cHedgeFired:    reg.Counter("shard.hedge.fired"),
		cHedgeWon:      reg.Counter("shard.hedge.won"),
		cHedgeWasted:   reg.Counter("shard.hedge.wasted"),
		cPartial:       reg.Counter("shard.partial"),
		cPartialShards: reg.Counter("shard.partial.shards"),
		cReplicaDown:   reg.Counter("shard.replica.down"),
		cReplicaUp:     reg.Counter("shard.replica.up"),
		cStale:         reg.Counter("shard.replica.stale"),
		cProbe:         reg.Counter("shard.probe.launched"),
		cProbeOK:       reg.Counter("shard.probe.ok"),
		cAppends:       reg.Counter("shard.appends"),
		cAppendRecords: reg.Counter("shard.append.records"),
		cAppendRetr:    reg.Counter("shard.append.retries"),
		gDown:          reg.Gauge("shard.replicas.down"),
		hAnswer:        reg.HDR("shard.answer.latency"),
	}
	return c
}

// addShard appends a shard built from replicas.
func (c *Coordinator) addShard(replicas []Replica) {
	id := len(c.shards)
	ss := &shardState{
		id:  id,
		lat: c.reg.HDR("shard.latency." + strconv.Itoa(id)),
	}
	for _, r := range replicas {
		ss.replicas = append(ss.replicas, &replicaState{r: r})
	}
	c.shards = append(c.shards, ss)
}

// New builds a sharded store under dir: the base facts are partitioned
// into opt.Shards disjoint subsets and each subset is materialized as
// opt.Replicas delta-ladder stores at dir/s<i>/r<j>. Every replica store
// clones its partition (serve.BuildDir), so replica maintenance never
// shares mutable state across stores.
func New(dir string, lat *lattice.Lattice, base *match.Set, opt Options) (*Coordinator, error) {
	opt = opt.withDefaults()
	c := newCoordinator(lat, dir, opt)
	parts := Partition(base, opt.Shards)
	for si, part := range parts {
		replicas := make([]Replica, opt.Replicas)
		for ri := 0; ri < opt.Replicas; ri++ {
			rdir := replicaDir(dir, si, ri)
			st, err := serve.BuildDir(rdir, lat, part, opt.Store)
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("shard: build s%d/r%d: %w", si, ri, err)
			}
			replicas[ri] = &storeReplica{store: st, label: fmt.Sprintf("s%d/r%d", si, ri)}
		}
		c.addShard(replicas)
		c.facts[si] = len(part.Facts)
	}
	return c, nil
}

// Open recovers a sharded store previously built by New under dir: the
// base facts are re-partitioned with the same hash, and each replica is
// recovered from its manifest + WAL (serve.OpenDir replays appends over
// a private clone of the partition).
func Open(dir string, lat *lattice.Lattice, base *match.Set, opt Options) (*Coordinator, error) {
	opt = opt.withDefaults()
	c := newCoordinator(lat, dir, opt)
	parts := Partition(base, opt.Shards)
	for si, part := range parts {
		replicas := make([]Replica, opt.Replicas)
		for ri := 0; ri < opt.Replicas; ri++ {
			st, err := serve.OpenDir(replicaDir(dir, si, ri), lat, part, opt.Store)
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("shard: open s%d/r%d: %w", si, ri, err)
			}
			replicas[ri] = &storeReplica{store: st, label: fmt.Sprintf("s%d/r%d", si, ri)}
		}
		c.addShard(replicas)
		c.facts[si] = len(part.Facts)
	}
	return c, nil
}

// IsBuilt reports whether dir already holds a sharded store's first
// replica manifest (the recovery cue, mirroring x3serve's single-store
// check).
func IsBuilt(dir string) bool {
	_, err := os.Stat(filepath.Join(replicaDir(dir, 0, 0), "MANIFEST.json"))
	return err == nil
}

// replicaDir is the on-disk layout: dir/s<i>/r<j>.
func replicaDir(dir string, si, ri int) string {
	return filepath.Join(dir, "s"+strconv.Itoa(si), "r"+strconv.Itoa(ri))
}

// NewWithReplicas assembles a coordinator over caller-provided replicas
// (groups[i] is shard i's replica list) — the harness for fault and
// hedging tests, and the seam a future cross-process HTTP replica slots
// into. A coordinator built this way is read-only: Append and
// RefreshDoc fail with ErrBadRequest, since there is no durable
// directory-backed routing state behind the replicas.
func NewWithReplicas(lat *lattice.Lattice, groups [][]Replica, opt Options) (*Coordinator, error) {
	opt.Shards = len(groups)
	if opt.Shards == 0 {
		return nil, fmt.Errorf("shard: no replica groups")
	}
	if opt.Replicas <= 0 {
		opt.Replicas = len(groups[0])
	}
	opt = opt.withDefaults()
	c := newCoordinator(lat, "", opt)
	for _, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("shard: empty replica group")
		}
		c.addShard(g)
	}
	return c, nil
}

// SetReplicaFault installs (or clears, with nil) the boundary injector
// of replica ri of shard si. The failure sweeps use this to kill and
// revive replicas on a live coordinator.
func (c *Coordinator) SetReplicaFault(si, ri int, inj *fault.Injector) {
	inj.Observe(c.reg)
	c.shards[si].replicas[ri].inj.Store(inj)
}

// ResetHealth clears every replica's health state (down marks, failure
// streaks, stale marks). Failure sweeps call it between scenarios.
func (c *Coordinator) ResetHealth() {
	for _, sh := range c.shards {
		for _, rs := range sh.replicas {
			rs.mu.Lock()
			rs.fails, rs.down, rs.stale = 0, false, false
			rs.mu.Unlock()
		}
	}
	c.downN.Store(0)
	c.gDown.Set(0)
}

// Registry exposes the coordinator's metrics registry.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Dir returns the coordinator's on-disk root ("" for NewWithReplicas).
func (c *Coordinator) Dir() string { return c.dir }

// Close waits for outstanding probes and closes every replica.
func (c *Coordinator) Close() error {
	c.probes.Wait()
	var first error
	for _, sh := range c.shards {
		for _, rs := range sh.replicas {
			if err := rs.r.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// CompactLoop runs every store-backed replica's background compactor
// until ctx is cancelled (non-store replicas are skipped).
func (c *Coordinator) CompactLoop(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	var wg sync.WaitGroup
	for _, sh := range c.shards {
		for _, rs := range sh.replicas {
			sr, ok := rs.r.(*storeReplica)
			if !ok {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				sr.store.CompactLoop(ctx)
			}()
		}
	}
	wg.Wait()
}

// ReplicaInfo is one replica's topology entry.
type ReplicaInfo struct {
	Label string `json:"label"`
	Down  bool   `json:"down,omitempty"`
	Stale bool   `json:"stale,omitempty"`
}

// ShardInfo is one shard's topology entry.
type ShardInfo struct {
	ID       int           `json:"id"`
	KeyRange string        `json:"key_range"`
	Facts    int           `json:"facts"`
	Replicas []ReplicaInfo `json:"replicas"`
}

// Topology reports the live shard map: key ranges, base fact counts,
// and per-replica health.
func (c *Coordinator) Topology() []ShardInfo {
	out := make([]ShardInfo, len(c.shards))
	c.factsMu.Lock()
	facts := append([]int(nil), c.facts...)
	c.factsMu.Unlock()
	for i, sh := range c.shards {
		si := ShardInfo{ID: i, KeyRange: KeyRange(i, len(c.shards))}
		if i < len(facts) {
			si.Facts = facts[i]
		}
		for _, rs := range sh.replicas {
			rs.mu.Lock()
			si.Replicas = append(si.Replicas, ReplicaInfo{Label: rs.r.Label(), Down: rs.down, Stale: rs.stale})
			rs.mu.Unlock()
		}
		out[i] = si
	}
	return out
}

// KeyRange names shard si's fact partition as a residue class of the
// partition hash — the identifier a Partial answer reports for a lost
// shard.
func KeyRange(si, n int) string {
	return fmt.Sprintf("hash(fact)%%%d==%d", n, si)
}
