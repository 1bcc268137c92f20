package cube

import (
	"sync/atomic"
	"time"

	"x3/internal/gate"

	"x3/internal/agg"
	"x3/internal/match"
	"x3/internal/obs"
)

// sinkBatcher fans one downstream Sink out to per-worker batchSinks.
// Workers buffer cells locally (keys copied into a flat arena) and flush
// whole batches under a single lock acquisition. The downstream sink sees
// a strictly serialized call sequence — it need not be safe for
// concurrent use — and the lock is paid once per batch, not once per
// cell.
type sinkBatcher struct {
	// mu serializes flushes into next, which is blocking sink I/O by
	// design — hence a gate.Gate, not a sync.Mutex (lockhold forbids
	// blocking under a mutex).
	mu      gate.Gate
	next    Sink
	mergeNS atomic.Int64
}

// batchSinkCap is the flush threshold in buffered cells.
const batchSinkCap = 256

func newSinkBatcher(next Sink) *sinkBatcher { return &sinkBatcher{mu: gate.New(), next: next} }

// worker returns a new worker-local batch front-end. Not safe for
// concurrent use itself; make one per worker.
func (b *sinkBatcher) worker() *batchSink { return &batchSink{parent: b} }

// flushObs folds the accumulated flush time into cube.par.merge.ns — the
// cost of merging worker-local output into the shared sink. Nil-registry
// safe.
func (b *sinkBatcher) flushObs(reg *obs.Registry) {
	reg.Counter("cube.par.merge.ns").Add(b.mergeNS.Swap(0))
}

// batchCell is one buffered cell; its key lives in the owning batchSink's
// arena at [off, off+n).
type batchCell struct {
	point uint32
	off   int32
	n     int32
	s     agg.State
}

// batchSink is the worker-local front-end of a sinkBatcher. It implements
// Sink.
type batchSink struct {
	parent *sinkBatcher
	cells  []batchCell
	arena  []match.ValueID
}

// Cell implements Sink: the cell is buffered (key copied) and the batch is
// flushed downstream when full. Errors surface on the flushing call.
func (b *batchSink) Cell(point uint32, key []match.ValueID, s agg.State) error {
	b.cells = append(b.cells, batchCell{point: point, off: int32(len(b.arena)), n: int32(len(key)), s: s})
	b.arena = append(b.arena, key...)
	if len(b.cells) >= batchSinkCap {
		return b.flush()
	}
	return nil
}

// flush drains the buffer into the shared sink under the batcher's lock.
// Call once more after the worker finishes to push the final partial
// batch.
func (b *batchSink) flush() error {
	if len(b.cells) == 0 {
		return nil
	}
	start := time.Now()
	b.parent.mu.Lock()
	var err error
	for _, c := range b.cells {
		if err = b.parent.next.Cell(c.point, b.arena[c.off:c.off+c.n], c.s); err != nil {
			break
		}
	}
	b.parent.mu.Unlock()
	b.parent.mergeNS.Add(time.Since(start).Nanoseconds())
	b.cells = b.cells[:0]
	b.arena = b.arena[:0]
	return err
}
