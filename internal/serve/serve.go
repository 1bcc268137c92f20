// Package serve is the materialized-cube serving layer: it turns a
// computed relaxed cube into an answerable store. A Store owns indexed
// cell files (internal/cellfile) holding the materialized cuboids, the
// base fact table, and the summarizability properties measured from
// those facts — at Build, BuildDir and OpenDir, then kept exact under
// every append in O(delta), so no roll-up relies on a property the data
// lacks; a query planner
// (planner.go) answers point, slice and roll-up queries by routing each
// target cuboid to the cheapest materialized cuboid it can be *safely*
// derived from — the §3.2/§3.7 safe-relaxation rule (cube.PathSafe)
// that view selection applies too — falling back to base-fact
// recomputation when no safe ancestor is materialized.
//
// One executor runs every plan: it scans one source — the planned
// cuboid merged across the generations and the memtable, or the base
// facts — projects each arrival onto the target's live axes, and
// combines equal keys only where the source is not the target itself.
// Cells are never hashed by group: a direct read is already sorted and
// distinct, and roll-ups, base recomputes and the shard coordinator's
// gather Fold — a stable sort, then each run of equal keys merged in
// arrival order — so every float state has the bits of an arrival-order
// fold. A request takes the store's read lock once, from resolving its
// pins to decoding its rows.
//
// Every store has one read-path shape: a base generation, delta
// generations and a memtable. A store built with BuildDir is a delta
// ladder (ladder.go), the only store that changes: appends are logged,
// held in the memtable, flushed as delta generations and compacted. A
// store built with Build is one read-only cell file with no deltas and
// an empty memtable. Every generation file is written by one routine
// (publish) and swapped in under the store lock, so queries run
// concurrently with maintenance.
//
// Both builds take one route from algorithm to disk: COUNTER, exact on
// any data, computes the cube into a cellfile.IndexedSink, which sorts
// its cells (spilling sorted runs past a bound); view or budget
// selection reads per-cuboid cell counts and encoded sizes off that
// sorted stream (selectKeep); and publish writes the kept cuboids as the
// base generation.
package serve

import (
	"fmt"
	"os"
	"slices"
	"sync"

	"x3/internal/cellfile"
	"x3/internal/costmodel"
	"x3/internal/cube"
	"x3/internal/fault"
	"x3/internal/gate"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/obs"
	"x3/internal/wal"
)

// Options configure Build, BuildDir and OpenDir. A store takes no
// algorithm and no summarizability properties: every build computes its
// cube with COUNTER, and every store measures its properties from its
// own facts and keeps them exact under appends, so no option can make
// the planner roll up across an edge the data does not make safe.
type Options struct {
	// Views > 0 materializes at most that many cuboids, picked by the
	// cost model's greedy selection (internal/costmodel) with every
	// cuboid weighing one unit of budget, under the store's safety
	// properties; 0 materializes every cuboid. Ignored when SpaceBudget
	// is set.
	Views int
	// SpaceBudget > 0 materializes only the cuboids picked by the greedy
	// benefit-per-byte cost model (internal/costmodel) within this many
	// encoded bytes; the planner's safe-relaxation routing answers the
	// rest. Ladder stores re-run the selection on every compaction with
	// the live per-cuboid query counts and cache hit rate, so the
	// materialized set adapts to the workload. Takes precedence over
	// Views.
	SpaceBudget int64
	// CacheBytes bounds the heap of the LRU block cache: each cached
	// block is charged the memory its decoded cells and keys hold, and a
	// cuboid read larger than the whole budget passes through without
	// being cached. 0 selects the default of 64*cellfile.DefaultBlockBytes
	// (1 MiB); negative disables caching.
	CacheBytes int64
	// BlockCells overrides the indexed file's block granularity
	// (0 = cellfile.DefaultBlockCells).
	BlockCells int
	// Registry receives the serve.* counters and latency histograms; nil
	// disables observability.
	Registry *obs.Registry
	// Fault injects deterministic faults into the store's file I/O —
	// reads of the indexed cell file and writes of new generations; nil
	// disables injection.
	Fault *fault.Injector
	// Retries bounds re-read attempts on the indexed read path; 0 selects
	// the cellfile default, negative disables retrying.
	Retries int
	// FlushCells makes a ladder store (BuildDir/OpenDir) flush its
	// memtable as a delta generation once it holds at least this many
	// cells; 0 selects the default (4096), negative disables auto-flush
	// (Flush must be called explicitly). Single-file stores ignore it.
	FlushCells int
	// CompactAfter signals the background compactor (CompactLoop) once a
	// flush leaves this many outstanding delta generations; 0 selects the
	// default (4), negative never signals. Single-file stores ignore it.
	CompactAfter int
}

// Store is a servable materialized cube. All exported methods are safe
// for concurrent use.
type Store struct {
	path        string
	lat         *lattice.Lattice
	reg         *obs.Registry
	cache       *cellfile.BlockCache
	blockCells  int
	fault       *fault.Injector
	retries     int
	spaceBudget int64
	// qcounts tracks per-cuboid query arrivals (indexed by pid, updated
	// with atomic adds); the cost model reads them as benefit weights.
	qcounts []int64

	// Maintenance state (BuildDir/OpenDir); zero for a read-only store
	// built with Build. dir, flushCells, compactAfter and compactCh are
	// immutable after open; walW, nextSeq and man belong to the
	// maintenance path and are guarded by refreshMu.
	dir          string
	flushCells   int64
	compactAfter int
	compactCh    chan struct{}
	walW         *wal.Writer
	nextSeq      uint64
	man          manifest

	// refreshMu serializes maintenance (refresh, append, flush, compact);
	// mu guards the swappable state below. Queries hold mu.RLock for
	// their whole execution, so a maintenance swap waits for in-flight
	// answers and later answers see the new state. Maintenance holds the
	// gate across file I/O by design, which is why it is a gate.Gate and
	// not a sync.Mutex (lockhold forbids blocking under a mutex).
	//
	// Every store has the read path's one shape: keepSorted, rdr, deltas
	// and mem. keepSorted lists the materialized cuboids every generation
	// holds (man.Keep, which a budgeted compaction may shrink; a Build
	// store's file's cuboids). A Build store has no deltas and an empty
	// memtable.
	refreshMu  gate.Gate
	mu         sync.RWMutex
	keepSorted []uint32
	rdr        *cellfile.IndexedReader
	deltas     []*cellfile.IndexedReader // delta generations, oldest first
	mem        *cube.Delta               // unflushed cells
	// base is the store's own fact table; its Dicts are the only copy of
	// the dictionaries. A ladder append extends both in place: the fact
	// slice grows past the length readers hold (they never read the
	// tail), and the dictionaries gain values only in commit, under
	// refreshMu plus mu.Lock. Readers touch dictionaries under mu.RLock.
	base *match.Set
	// props are measured from base at open and absorb every append's
	// facts, so they are exact for the facts the store holds.
	props     *cube.MeasuredProps
	decisions []costmodel.Decision
}

// Build computes the cube of lat over base, materializes the selected
// cuboids as an indexed cell file at path, and returns the serving store.
// Iceberg queries (HAVING >= n) are refused: their discarded cells make
// both roll-up serving and maintenance unsound.
func Build(path string, lat *lattice.Lattice, base *match.Set, opt Options) (*Store, error) {
	s := newStore(path, lat, base, opt)
	sink, keep, err := s.computeCube(opt)
	if err != nil {
		return nil, err
	}
	defer sink.Abort()
	if s.rdr, _, err = s.publish(path, emitBase(lat, sink, keep)); err != nil {
		return nil, err
	}
	// The ladder's read-path shape: the file's cuboids as the keep list,
	// no deltas and a memtable no append can fill.
	s.keepSorted = s.rdr.Points()
	s.mem = cube.NewDelta(lat, s.keepSorted)
	return s, nil
}

// computeCube runs the initial cube computation shared by Build and
// BuildDir: measure the summarizability properties, compute the full
// cube with COUNTER — exact on any data — into a sorted sink that spills
// its runs beside s.path, and pick the materialized point set
// (selectKeep). The caller publishes the sink's cells (emitBase) and
// then aborts it. Iceberg queries are refused here.
func (s *Store) computeCube(opt Options) (*cellfile.IndexedSink, map[uint32]bool, error) {
	if s.lat.Query.MinSupport > 1 {
		return nil, nil, fmt.Errorf("serve: cannot serve an iceberg cube (HAVING >= %d)", s.lat.Query.MinSupport)
	}
	var err error
	if s.props, err = cube.MeasureProps(s.lat, s.base); err != nil {
		return nil, nil, err
	}
	sink := cellfile.CreateIndexed(s.path)
	sink.BlockCells, sink.Fault = opt.BlockCells, opt.Fault
	in := &cube.Input{Lattice: s.lat, Source: s.base, Dicts: s.base.Dicts, Reg: opt.Registry}
	var keep map[uint32]bool
	if _, err = (cube.Counter{}).Run(in, sink); err == nil {
		keep, s.decisions, err = selectKeep(s.lat, s.props, sink, s.base.NumFacts(), opt)
	}
	if err != nil {
		sink.Abort()
		return nil, nil, err
	}
	return sink, keep, nil
}

// newStore assembles the Store fields common to every open path.
func newStore(path string, lat *lattice.Lattice, base *match.Set, opt Options) *Store {
	s := &Store{
		path:        path,
		lat:         lat,
		refreshMu:   gate.New(),
		reg:         opt.Registry,
		blockCells:  opt.BlockCells,
		fault:       opt.Fault,
		retries:     opt.Retries,
		spaceBudget: opt.SpaceBudget,
		qcounts:     make([]int64, lat.Size()),
		base:        base,
	}
	if opt.CacheBytes >= 0 {
		budget := opt.CacheBytes
		if budget == 0 {
			budget = 64 * cellfile.DefaultBlockBytes
		}
		s.cache = cellfile.NewBlockCacheBytes(budget)
		s.cache.Observe(opt.Registry)
	}
	return s
}

// openGen opens one generation cell file with the store's read-fault
// options and hooks it into the store's observability and block cache.
func (s *Store) openGen(path string) (*cellfile.IndexedReader, error) {
	rdr, err := cellfile.OpenIndexedWith(path, cellfile.ReadOptions{Fault: s.fault, Retries: s.retries})
	if err != nil {
		return nil, err
	}
	rdr.Observe(s.reg)
	if s.cache != nil {
		rdr.SetCache(s.cache)
	}
	return rdr, nil
}

// publish writes one generation cell file at path, crash-safely: emit
// streams the cells, in file order, through a cellfile.Writer into a
// temp file that is synced, then re-opened — a structural validation —
// before it is renamed over path. A write fault or crash at any point
// leaves path untouched: the previous generation, if one exists, keeps
// serving. On success the validated reader over the new generation is
// returned with its cell count.
func (s *Store) publish(path string, emit func(*cellfile.Writer) error) (*cellfile.IndexedReader, int64, error) {
	tmp := path + ".tmp"
	cells, err := cellfile.WriteFile(tmp, s.blockCells, s.fault, emit)
	if err != nil {
		return nil, 0, err // WriteFile removes tmp on failure
	}
	rdr, err := s.openGen(tmp)
	if err != nil {
		os.Remove(tmp)
		return nil, 0, err
	}
	// The reader holds an open fd, which follows the inode through the
	// rename; only after the new generation proves readable does it
	// replace the old one.
	if err := os.Rename(tmp, path); err != nil {
		rdr.Close()
		os.Remove(tmp)
		return nil, 0, err
	}
	return rdr, cells, nil
}

// emitBase streams the kept cuboids of a computed cube, in the sink's
// file order, into a generation writer (the base generation Build and
// BuildDir publish). A cell the algorithm emitted twice fails the write.
func emitBase(lat *lattice.Lattice, sink *cellfile.IndexedSink, keep map[uint32]bool) func(*cellfile.Writer) error {
	return func(w *cellfile.Writer) error {
		var (
			prev      []match.ValueID
			prevPoint uint32
			started   bool
		)
		return sink.Sorted(func(c *cellfile.Cell) error {
			if started && c.Point == prevPoint && slices.Equal(c.Key, prev) {
				return fmt.Errorf("serve: duplicate cell for cuboid %s key %v", lat.Label(lat.FromID(c.Point)), c.Key)
			}
			prevPoint, prev, started = c.Point, append(prev[:0], c.Key...), true
			if !keep[c.Point] {
				return nil
			}
			return w.Cell(c.Point, c.Key, c.State)
		})
	}
}

// bestEffort consumes the error of a cleanup step whose failure cannot
// change any answer (the data it touches is already superseded) but must
// not vanish either: failures count into serve.cleanup.errors.
func (s *Store) bestEffort(err error) {
	if err != nil {
		s.reg.Counter("serve.cleanup.errors").Inc()
	}
}

// closeReaders closes every open generation reader (partial-open cleanup
// and Close).
func (s *Store) closeReaders() {
	if s.rdr != nil {
		s.bestEffort(s.rdr.Close())
	}
	for _, d := range s.deltas {
		s.bestEffort(d.Close())
	}
}

// Lattice returns the store's cuboid lattice.
func (s *Store) Lattice() *lattice.Lattice { return s.lat }

// Path returns the indexed cell file backing the store (the current
// base generation, for ladder stores).
func (s *Store) Path() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.path
}

// DataBytes returns the encoded size of the store's cell blocks — for
// ladder stores, summed across the base and every delta generation. This
// is the quantity a SpaceBudget constrains.
func (s *Store) DataBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := s.rdr.DataBytes()
	for _, d := range s.deltas {
		total += d.DataBytes()
	}
	return total
}

// NumFacts returns the number of base facts currently behind the store.
func (s *Store) NumFacts() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.base.NumFacts()
}

// Materialized lists the materialized cuboids and their cell counts. In
// ladder mode a cuboid's count sums its cells across the base, every
// delta generation, and the memtable (same-group cells in different
// generations count once each — the physical, not logical, cell count).
func (s *Store) Materialized() []MaterializedCuboid {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []MaterializedCuboid
	for _, pid := range s.keepSorted {
		n := s.matCells(pid)
		p := s.lat.FromID(pid)
		out = append(out, MaterializedCuboid{Point: p, Label: s.lat.Label(p), Cells: n})
	}
	return out
}

// matCells returns cuboid pid's physical cell count across every
// generation and the memtable, under a held read lock.
func (s *Store) matCells(pid uint32) int64 {
	n, _ := s.rdr.CuboidCells(pid)
	for _, d := range s.deltas {
		m, _ := d.CuboidCells(pid)
		n += m
	}
	return n + s.mem.CuboidCells(pid)
}

// MaterializedCuboid describes one cuboid held by the indexed store.
type MaterializedCuboid struct {
	Point lattice.Point `json:"-"`
	Label string        `json:"label"`
	Cells int64         `json:"cells"`
}

// Close releases the store's readers and, for ladder stores, the
// write-ahead log handle. The memtable's unflushed cells stay durable in
// the log; reopening with OpenDir recovers them.
func (s *Store) Close() error {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	// Snapshot the handles under the data mutex — taking the write lock
	// drains in-flight queries — then close them outside it: file closes
	// can block, and nothing may block while s.mu is held.
	s.mu.Lock()
	rdr := s.rdr
	deltas := s.deltas
	walW := s.walW
	s.mu.Unlock()
	var err error
	if rdr != nil {
		err = rdr.Close()
	}
	for _, d := range deltas {
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}
	if walW != nil {
		if cerr := walW.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
