package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"x3/internal/cellfile"
	"x3/internal/costmodel"
	"x3/internal/cube"
	"x3/internal/fault"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/wal"
	"x3/internal/xmltree"
)

// This file is the log-structured incremental-maintenance path: a store
// built with BuildDir owns a directory of generation-numbered cell files
// described by a manifest, a write-ahead log, and an in-memory delta
// cell table (cube.Delta). The write lifecycle is
//
//	Append: document → WAL (fsync; the durability point) → memtable
//	Flush:  memtable → sorted delta cell file → manifest swap
//	Compact: base + deltas → merged base file → manifest swap
//
// and the read path (planner.go) re-aggregates base + deltas + memtable
// per cell, which is exact because the supported aggregates are
// distributive across the disjoint per-generation fact sets. Every state
// transition is ordered so that a crash (or injected fault) at any point
// leaves the store recoverable to exactly the pre-crash acknowledged
// state: cell files are synced, validated by re-opening, and renamed
// into place before the manifest adopts them; the manifest itself swaps
// atomically; and recovery replays the WAL — the system of record for
// the append history — to rebuild dictionaries, base facts, and the
// unflushed memtable.

// defaultFlushCells is the memtable size that triggers an automatic
// flush after an append.
const defaultFlushCells = 4096

// defaultCompactAfter is the outstanding-delta count that signals the
// background compactor after a flush.
const defaultCompactAfter = 4

// BuildDir computes the cube of lat over base and materializes it as a
// delta-ladder store in dir: a base generation cell file, a manifest,
// and an empty write-ahead log. The returned store accepts Append. The
// store works on its own clone of base, which appends extend in place;
// the caller's set is never modified.
func BuildDir(dir string, lat *lattice.Lattice, base *match.Set, opt Options) (*Store, error) {
	base = base.Clone()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	path := filepath.Join(dir, genName("base", 0))
	s := newStore(path, lat, base, opt)
	sink, keep, err := s.computeCube(opt)
	if err != nil {
		return nil, err
	}
	defer sink.Abort()
	s.initLadder(dir, manifest{
		Version: manifestVersion,
		NextGen: 1,
		Base:    filepath.Base(path),
		Keep:    sortedKeep(keep),
		Applied: 1,
	}, opt)

	rdr, _, err := s.publish(path, emitBase(lat, sink, keep))
	if err != nil {
		return nil, err
	}
	s.rdr = rdr
	s.mem = cube.NewDelta(lat, s.man.Keep)

	w, err := wal.Create(filepath.Join(dir, walName), wal.Options{Fault: opt.Fault, Registry: opt.Registry})
	if err != nil {
		rdr.Close()
		return nil, err
	}
	s.walW = w
	s.nextSeq = 1
	if err := writeManifest(dir, s.man, s.fault); err != nil {
		w.Close()
		rdr.Close()
		return nil, err
	}
	return s, nil
}

// OpenDir opens an existing delta-ladder store: the manifest names the
// generations, orphaned files from interrupted flushes or compactions
// are swept, and the write-ahead log is replayed — rebuilding the
// dictionaries and base facts deterministically and folding the records
// past the manifest's Applied horizon back into the memtable. base must
// be the same base fact set the store was built over (the cell files
// hold cube cells, not facts; the fact table is re-derived); like
// BuildDir, the store works on its own clone of it. A torn WAL
// tail — a crash mid-append — is cut at the last clean record.
func OpenDir(dir string, lat *lattice.Lattice, base *match.Set, opt Options) (*Store, error) {
	if lat.Query.MinSupport > 1 {
		return nil, fmt.Errorf("serve: cannot serve an iceberg cube (HAVING >= %d)", lat.Query.MinSupport)
	}
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	sweepOrphans(dir, man)

	s := newStore(filepath.Join(dir, man.Base), lat, base, opt)
	s.initLadder(dir, man, opt)

	rdr, err := s.openGen(s.path)
	if err != nil {
		return nil, err
	}
	s.rdr = rdr
	for _, name := range man.Deltas {
		d, err := s.openGen(filepath.Join(dir, name))
		if err != nil {
			s.closeReaders()
			return nil, err
		}
		s.deltas = append(s.deltas, d)
	}

	// Replay the WAL over a private clone of base: value IDs are assigned
	// in replay order, reproducing exactly the IDs the live store interned
	// when the records were appended.
	set := base.Clone()
	s.mem = cube.NewDelta(lat, man.Keep)
	walPath := filepath.Join(dir, walName)
	res, err := wal.Replay(walPath, wal.Options{Fault: opt.Fault, Registry: opt.Registry}, func(r wal.Record) error {
		doc, err := xmltree.Parse(bytes.NewReader(r.Payload))
		if err != nil {
			return fmt.Errorf("serve: wal record %d: %w", r.Seq, err)
		}
		delta, err := match.EvaluateWith(doc, lat, set.Dicts)
		if err != nil {
			return fmt.Errorf("serve: wal record %d: %w", r.Seq, err)
		}
		set.Facts = append(set.Facts, delta.Facts...)
		if r.Seq >= man.Applied {
			if _, err := s.mem.Absorb(delta); err != nil {
				return err
			}
		}
		return nil
	})
	if errors.Is(err, wal.ErrTruncated) && !fault.IsInjected(err) {
		// The torn tail of a crashed append: nothing past Good was ever
		// acknowledged. Cut it and continue. An *injected* short read is
		// excluded — a transient fault that merely looks like a torn tail
		// must fail the open, not cut durable records.
		if terr := wal.Truncate(walPath, res.Good); terr != nil {
			s.closeReaders()
			return nil, terr
		}
	} else if err != nil {
		s.closeReaders()
		return nil, err
	}
	s.nextSeq = res.NextSeq
	if s.nextSeq < man.Applied {
		s.nextSeq = man.Applied
	}
	if s.nextSeq == 0 {
		s.nextSeq = 1
	}
	s.base = set

	if s.props, err = cube.MeasureProps(lat, s.base); err != nil {
		s.closeReaders()
		return nil, err
	}

	w, err := wal.OpenAppend(walPath, wal.Options{Fault: opt.Fault, Registry: opt.Registry})
	if err != nil {
		s.closeReaders()
		return nil, err
	}
	s.walW = w
	return s, nil
}

// initLadder sets the ladder-mode fields common to BuildDir and OpenDir.
func (s *Store) initLadder(dir string, man manifest, opt Options) {
	s.dir = dir
	s.man = man
	s.keepSorted = man.Keep
	s.flushCells = int64(opt.FlushCells)
	if s.flushCells == 0 {
		s.flushCells = defaultFlushCells
	}
	s.compactAfter = opt.CompactAfter
	if s.compactAfter == 0 {
		s.compactAfter = defaultCompactAfter
	}
	s.compactCh = make(chan struct{}, 1)
}

// genName builds a generation file name ("base-000007.x3ci").
func genName(kind string, gen int) string {
	return fmt.Sprintf("%s-%06d.x3ci", kind, gen)
}

// sortedKeep flattens a keep set into the manifest's sorted pid list.
func sortedKeep(keep map[uint32]bool) []uint32 {
	out := make([]uint32, 0, len(keep))
	for pid := range keep {
		out = append(out, pid)
	}
	slices.Sort(out)
	return out
}

// Dir returns the store's generation directory ("" for single-file
// stores built with Build).
func (s *Store) Dir() string { return s.dir }

// writable refuses maintenance on a store built with Build: the delta
// ladder is the only way a store changes.
func (s *Store) writable() error {
	if s.dir != "" {
		return nil
	}
	return fmt.Errorf("%w: store is read-only (built with Build, not BuildDir)", ErrBadRequest)
}

// Generations reports the ladder's current shape: outstanding delta
// files and memtable cells. Build stores report zeros.
func (s *Store) Generations() (deltas int, memCells int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.deltas), s.mem.Cells()
}

// NextSeq returns the next write-ahead-log sequence number to be
// assigned (ladder stores only).
func (s *Store) NextSeq() uint64 {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	return s.nextSeq
}

// staged is a fully evaluated append, ready to commit: every fallible
// step (parse, dictionary interning, evaluation, property update)
// happens before the WAL write, so once the record is durable the
// in-memory commit cannot fail and the recovered state always equals the
// live post-append state. delta.Dicts are overlays over the store's
// dictionaries holding the document's new values; nothing live changes
// until commit publishes them, so a failed WAL write leaves the
// dictionaries exactly as recovery will rebuild them.
type staged struct {
	body  []byte
	delta *match.Set
	base  *match.Set
	props *cube.MeasuredProps
}

// stage parses and evaluates an appended document in O(document): the
// document is matched against overlays of the store's dictionaries, the
// new base shares the old fact slice's backing array (extended past the
// length readers hold, so they never see the tail), and measured
// properties absorb only the delta. stage and commit both run under
// refreshMu, so the dictionaries cannot grow between them.
func (s *Store) stage(body []byte) (*staged, error) {
	doc, err := xmltree.Parse(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	s.mu.RLock()
	oldBase := s.base
	s.mu.RUnlock()
	overlays := make([]*match.Dict, len(oldBase.Dicts))
	for i, d := range oldBase.Dicts {
		overlays[i] = d.Overlay()
	}
	delta, err := match.EvaluateWith(doc, s.lat, overlays)
	if err != nil {
		return nil, err
	}
	props, err := s.props.Absorb(delta)
	if err != nil {
		return nil, err
	}
	newBase := &match.Set{Lattice: s.lat, Dicts: oldBase.Dicts, Facts: append(oldBase.Facts, delta.Facts...)}
	return &staged{body: body, delta: delta, base: newBase, props: props}, nil
}

// commit folds a staged append into the live state under the store lock:
// the memtable absorbs the delta, the overlays' new values join the live
// dictionaries, and the extended base and properties are published —
// one critical section, so readers see all of it or none.
func (s *Store) commit(st *staged) (int64, error) {
	s.mu.Lock()
	//x3:nolint(lockhold) Delta.Absorb's blocking summary comes from file-backed Source.Each implementations; the staged delta built in stage() always carries the in-memory match.Set, so this call never touches a file
	added, err := s.mem.Absorb(st.delta)
	if err != nil {
		s.mu.Unlock()
		return 0, err
	}
	for _, d := range st.delta.Dicts {
		// Cannot fail: refreshMu keeps the dictionaries from growing
		// between stage and commit.
		if err := d.Commit(); err != nil {
			s.mu.Unlock()
			return 0, fmt.Errorf("serve: %w", err)
		}
	}
	s.base = st.base
	s.props = st.props
	s.mu.Unlock()
	s.nextSeq++
	return added, nil
}

// Append makes one XML document durable and serveable: the raw bytes are
// evaluated against the store's query, appended to the write-ahead log
// (fsynced — the durability point), and folded into the in-memory delta
// table. Queries see the new facts immediately; a crash after Append
// returns recovers them from the log. When the memtable reaches the
// flush threshold the append also flushes it as a delta generation.
// Returns the number of facts the document contributed.
func (s *Store) Append(ctx context.Context, body []byte) (int64, error) {
	if err := s.writable(); err != nil {
		return 0, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	return s.appendLocked(ctx, body)
}

func (s *Store) appendLocked(ctx context.Context, body []byte) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	st, err := s.stage(body)
	if err != nil {
		return 0, err
	}
	if err := s.walW.Append(s.nextSeq, st.body); err != nil {
		return 0, err
	}
	added, err := s.commit(st)
	if err != nil {
		return 0, err
	}
	s.reg.Counter("serve.appends").Inc()
	s.reg.Counter("serve.append.facts").Add(added)
	if s.flushCells > 0 && s.mem.Cells() >= s.flushCells {
		if err := s.flushLocked(ctx); err != nil {
			return added, err
		}
	}
	return added, nil
}

// Flush writes the memtable out as a sorted delta generation and swaps
// the manifest to adopt it. An empty memtable is a no-op. On return the
// flushed cells are served from the delta file and the WAL records they
// came from are marked applied (replay skips re-folding them).
func (s *Store) Flush(ctx context.Context) error {
	if err := s.writable(); err != nil {
		return err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	return s.flushLocked(ctx)
}

func (s *Store) flushLocked(ctx context.Context) error {
	if s.mem.Cells() == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	name := genName("delta", s.man.NextGen)
	full := filepath.Join(s.dir, name)
	rdr, cells, err := s.publish(full, func(w *cellfile.Writer) error {
		return s.mem.Each(w.Cell)
	})
	if err != nil {
		return err
	}

	newMan := s.man
	newMan.Deltas = append(append([]string(nil), s.man.Deltas...), name)
	newMan.NextGen++
	newMan.Applied = s.nextSeq
	if err := writeManifest(s.dir, newMan, s.fault); err != nil {
		// The orphaned delta file is swept on the next open.
		rdr.Close()
		os.Remove(full)
		return err
	}
	s.man = newMan

	old := s.mem
	fresh := cube.NewDelta(s.lat, s.man.Keep)
	s.mu.Lock()
	s.deltas = append(s.deltas, rdr)
	s.mem = fresh
	s.mu.Unlock()
	old.FlushObs(s.reg)

	s.reg.Counter("serve.flush.runs").Inc()
	s.reg.Counter("serve.flush.cells").Add(cells)
	if s.compactAfter > 0 && len(s.deltas) >= s.compactAfter {
		select {
		case s.compactCh <- struct{}{}:
		default:
		}
	}
	return nil
}

// Compact merges the base generation and every outstanding delta into a
// new base file — cellfile.MergeAgg, the merge the query path reads
// through, so equal (cuboid, group) cells combine in generation order —
// and swaps the manifest to the single merged generation. The memtable
// and WAL are untouched: compaction changes the file layout, never the
// answer.
// Cancellable via ctx; a failure or crash at any point leaves the old
// generation set serving.
func (s *Store) Compact(ctx context.Context) error {
	if err := s.writable(); err != nil {
		return err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	return s.compactLocked(ctx)
}

func (s *Store) compactLocked(ctx context.Context) error {
	s.mu.RLock()
	oldRdr := s.rdr
	oldDeltas := append([]*cellfile.IndexedReader(nil), s.deltas...)
	s.mu.RUnlock()
	if len(oldDeltas) == 0 {
		return nil
	}
	start := time.Now()
	gens := append([]*cellfile.IndexedReader{oldRdr}, oldDeltas...)

	// Under a space budget the compaction is also the adaptation point:
	// re-run the cost-model selection with the live query weights and
	// cache hit rate. Either way the merge keeps exactly the keep set, so
	// every generation holds the cuboids the manifest names and no other;
	// the planner re-derives a dropped cuboid's answers from finer
	// cuboids or base facts.
	newKeepSorted := s.man.Keep
	var newDecisions []costmodel.Decision
	if s.spaceBudget > 0 {
		pids, decisions, err := s.budgetKeep(gens)
		if err != nil {
			return err
		}
		newKeepSorted, newDecisions = pids, decisions
	}
	newKeepSet := make(map[uint32]bool, len(newKeepSorted))
	for _, pid := range newKeepSorted {
		newKeepSet[pid] = true
	}

	name := genName("base", s.man.NextGen)
	full := filepath.Join(s.dir, name)
	rdr, cells, err := s.publish(full, func(w *cellfile.Writer) error {
		srcs := make([]cellfile.Stream, len(gens))
		for i, g := range gens {
			c := g.All(cellfile.Verified)
			defer c.Close()
			srcs[i] = c
		}
		return cellfile.MergeAgg(ctx, srcs, func(c *cellfile.Cell) error {
			if !newKeepSet[c.Point] {
				return nil
			}
			return w.Cell(c.Point, c.Key, c.State)
		})
	})
	if err != nil {
		return err
	}

	newMan := s.man
	newMan.Base = name
	newMan.Deltas = nil
	newMan.NextGen++
	newMan.Keep = newKeepSorted
	if err := writeManifest(s.dir, newMan, s.fault); err != nil {
		rdr.Close()
		os.Remove(full)
		return err
	}
	oldBaseName := s.man.Base
	oldDeltaNames := s.man.Deltas
	s.man = newMan

	s.mu.Lock()
	s.rdr = rdr
	s.deltas = nil
	s.path = full
	if s.spaceBudget > 0 {
		s.keepSorted = newKeepSorted
		s.decisions = newDecisions
		s.mem.Restrict(newKeepSorted)
	}
	s.mu.Unlock()

	s.bestEffort(oldRdr.Close())
	s.bestEffort(os.Remove(filepath.Join(s.dir, oldBaseName)))
	for i, d := range oldDeltas {
		s.bestEffort(d.Close())
		s.bestEffort(os.Remove(filepath.Join(s.dir, oldDeltaNames[i])))
	}

	s.reg.Counter("compact.runs").Inc()
	s.reg.Counter("compact.cells").Add(cells)
	s.reg.Counter("compact.inputs").Add(int64(1 + len(oldDeltas)))
	s.reg.HDR("compact.merge.latency").ObserveDuration(time.Since(start))
	return nil
}

// CompactLoop runs compactions in the background until ctx is
// cancelled: each flush that leaves at least Options.CompactAfter
// outstanding deltas signals one compaction. Run it as a goroutine from
// the process entry layer (`go store.CompactLoop(ctx)`); it never
// spawns goroutines itself.
func (s *Store) CompactLoop(ctx context.Context) {
	if s.writable() != nil || ctx == nil {
		return
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.compactCh:
			if err := s.Compact(ctx); err != nil && !isCancellation(err) {
				s.reg.Counter("compact.errors").Inc()
			}
		}
	}
}

// RefreshDoc folds a parsed document into the store and restores the
// single-base layout: the document rides the append path (WAL-durable
// before it is served), then a flush and a full compaction merge every
// generation into one base file. A failure after the append leaves the
// document acknowledged and served from the memtable or a delta; a
// failure before it changes nothing. Stores built with Build are
// read-only and refuse with ErrBadRequest. Returns the number of facts
// added.
func (s *Store) RefreshDoc(ctx context.Context, doc *xmltree.Document) (int64, error) {
	if err := s.writable(); err != nil {
		return 0, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var buf bytes.Buffer
	if err := doc.Write(&buf); err != nil {
		return 0, err
	}
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	added, err := s.appendLocked(ctx, buf.Bytes())
	if err != nil {
		return 0, err
	}
	if err := s.flushLocked(ctx); err != nil {
		return added, err
	}
	if err := s.compactLocked(ctx); err != nil {
		return added, err
	}
	s.reg.Counter("serve.refresh.runs").Inc()
	s.reg.Counter("serve.refresh.added").Add(added)
	return added, nil
}
