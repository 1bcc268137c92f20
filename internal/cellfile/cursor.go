package cellfile

import (
	"context"
	"math"
	"sort"
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
// over one cuboid (Cuboid) or the whole file (All). It decodes into a
// pooled decoder and allocates nothing per block. Every decoded cell,
// skipped same-block neighbours included, counts toward serve.scan.cells.
// A cursor that reaches its end closes itself.
type Cursor struct {
	r      *IndexedReader
	mode   ReadMode
	keep   bool   // Indexed: insert missed blocks into the cache
	lo, hi uint32 // point range
	bi     int    // next block to read
	d      *blockDecoder
	cells  []Cell // current block
	pos    int
	done   bool
}

// Cuboid returns a cursor over cuboid point's cells. Only the blocks
// that can contain the cuboid are read: a binary search finds the first
// candidate block and the walk stops at the first cell of a later
// cuboid. A cuboid the file does not hold yields nothing.
func (r *IndexedReader) Cuboid(point uint32, mode ReadMode) *Cursor {
	n, ok := r.CuboidCells(point)
	if !ok {
		return &Cursor{done: true}
	}
	// First block that could contain the cuboid: the one before the first
	// block starting at a later point (the cuboid's first cells can sit
	// at the tail of a block whose firstPoint is smaller).
	bi := sort.Search(len(r.blocks), func(i int) bool { return r.blocks[i].firstPoint >= point })
	if bi > 0 {
		bi--
	}
	return r.cursor(mode, n, point, point, bi)
}

// All returns a cursor over every cell of the file.
func (r *IndexedReader) All(mode ReadMode) *Cursor {
	return r.cursor(mode, r.cells, 0, math.MaxUint32, 0)
}

func (r *IndexedReader) cursor(mode ReadMode, cells int64, lo, hi uint32, bi int) *Cursor {
	return &Cursor{
		r: r, mode: mode, keep: r.keeps(cells),
		lo: lo, hi: hi, bi: bi, d: decoders.Get().(*blockDecoder),
	}
}

// Next returns the next cell, or nil once the range is exhausted. The
// cell, its Key included, is borrowed: it is valid only until the
// following Next or Close, and must not be modified; a caller that keeps
// a key copies it. ctx is checked before every block read (nil never
// cancels); a cancellation surfaces as a wrapped ErrCancelled.
func (c *Cursor) Next(ctx context.Context) (*Cell, error) {
	for {
		for c.pos < len(c.cells) {
			cell := &c.cells[c.pos]
			c.pos++
			if cell.Point < c.lo {
				continue
			}
			if cell.Point > c.hi {
				c.Close()
				return nil, nil
			}
			return cell, nil
		}
		if c.done || c.bi >= len(c.r.blocks) || c.r.blocks[c.bi].firstPoint > c.hi {
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
		c.cells, c.pos = cells, 0
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
