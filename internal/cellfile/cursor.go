package cellfile

import (
	"context"
	"math"
	"slices"
	"sort"

	"x3/internal/match"
)

// ReadMode says how a Cursor reads its blocks.
type ReadMode uint8

const (
	// Indexed reads consult the block cache first; a missed block is read
	// fresh and cached, unless the whole range exceeds the cache budget
	// (see keeps).
	Indexed ReadMode = iota
	// Verified reads bypass the cache: every block is read fresh, with
	// the retry budget, and checked against its checksum — the degraded
	// re-read, and the mode of compaction, which must not evict hot blocks.
	Verified
)

// Cursor is a pull walk over a cell file's cells in (point, key) order,
// over one cuboid, or the part of it whose keys start with a prefix
// (Cuboid), or over the whole file (All). It decodes into a pooled
// decoder and allocates nothing per block. Every cell of every block it
// decodes or takes from the cache counts toward serve.scan.cells — the
// block's cells outside the range included — so the counter measures the
// blocks a read touched, not the cells it yielded. A cursor that reaches
// its end closes itself.
type Cursor struct {
	r      *IndexedReader
	mode   ReadMode
	keep   bool            // Indexed: insert missed blocks into the cache
	lo, hi uint32          // point range
	prefix []match.ValueID // Cuboid: the key prefix of every cell yielded
	left   int64           // cells the directory says are still to come; negative for a prefix read
	bi     int             // next block to read
	d      *blockDecoder
	cells  []Cell // current block
	pos    int
	done   bool
}

// Cuboid returns a cursor over the cells of cuboid point whose keys
// start with prefix; an empty prefix reads the whole cuboid. Those cells
// sit next to each other in the file, so the read seeks: a binary search
// over the index's (first point, first key) entries finds the last block
// whose first cell sorts at or before (point, prefix), a binary search
// inside that decoded block finds the first cell with the prefix, and
// the walk stops at the first decoded cell past it — about one block for
// a selective prefix. Where a walk stops never rests on one index entry
// alone, since each block read checks only its own entry: a prefix read
// that used up a block without passing its range reads the next block
// too (rare: the range must end on a block's last cell), and a
// whole-cuboid read stops at a block boundary only once it has yielded
// the directory's count of cells and the next block's indexed first
// point is past the cuboid. A lying entry therefore fails a read as
// ErrCorrupt instead of cutting it short. A cuboid the file does not
// hold yields nothing. The cursor keeps prefix, which must not change
// until the cursor is closed. An Indexed read's cache rule (see keeps)
// is the whole cuboid's, whatever the prefix.
func (r *IndexedReader) Cuboid(point uint32, prefix []match.ValueID, mode ReadMode) *Cursor {
	n, ok := r.CuboidCells(point)
	if !ok {
		return &Cursor{done: true}
	}
	bi := sort.Search(len(r.blocks), func(i int) bool {
		b := &r.blocks[i]
		return compareCells(b.firstPoint, b.firstKey, point, prefix) > 0
	})
	if bi > 0 {
		bi--
	}
	c := r.cursor(mode, n, point, point, bi)
	if len(prefix) > 0 {
		c.prefix, c.left = prefix, -1
	}
	return c
}

// All returns a cursor over every cell of the file.
func (r *IndexedReader) All(mode ReadMode) *Cursor {
	return r.cursor(mode, r.cells, 0, math.MaxUint32, 0)
}

func (r *IndexedReader) cursor(mode ReadMode, cells int64, lo, hi uint32, bi int) *Cursor {
	return &Cursor{
		r: r, mode: mode, keep: r.keeps(cells), left: cells,
		lo: lo, hi: hi, bi: bi, d: decoders.Get().(*blockDecoder),
	}
}

// ComparePrefix compares key, cut to the length of prefix, with prefix:
// 0 when key starts with prefix, negative when every key that does sorts
// after key, positive when every such key sorts before it.
func ComparePrefix(key, prefix []match.ValueID) int {
	return slices.Compare(key[:min(len(key), len(prefix))], prefix)
}

// Next returns the next cell, or nil once the range is exhausted. The
// cell, its Key included, is borrowed: it is valid only until the
// following Next or Close, and must not be modified; a caller that keeps
// a key copies it. ctx is checked before every block read (nil never
// cancels); a cancellation surfaces as a wrapped ErrCancelled.
func (c *Cursor) Next(ctx context.Context) (*Cell, error) {
	for {
		if c.pos < len(c.cells) {
			cell := &c.cells[c.pos]
			if cell.Point > c.hi || (len(c.prefix) > 0 && ComparePrefix(cell.Key, c.prefix) > 0) {
				c.Close()
				return nil, nil
			}
			c.pos++
			c.left--
			return cell, nil
		}
		if c.done || c.bi >= len(c.r.blocks) || (c.left == 0 && c.r.blocks[c.bi].firstPoint > c.hi) {
			c.Close()
			return nil, nil
		}
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		cells, err := c.r.readBlock(c.d, c.bi, c.mode, c.keep)
		if err != nil {
			return nil, err
		}
		c.r.scanCells.Add(int64(len(cells)))
		c.bi++
		c.cells = cells
		c.pos = sort.Search(len(cells), func(i int) bool {
			return cells[i].Point > c.lo || (cells[i].Point == c.lo && (len(c.prefix) == 0 || ComparePrefix(cells[i].Key, c.prefix) >= 0))
		})
	}
}

// Close ends the walk and returns the cursor's decoder to the pool. It
// is idempotent.
func (c *Cursor) Close() {
	if c.d != nil {
		decoders.Put(c.d)
		c.d = nil
	}
	c.cells, c.done = nil, true
}
