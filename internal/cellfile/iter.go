package cellfile

// CellIterator is a pull-style walk over every cell of an indexed file,
// in (point, key) order — the shape the compactor's k-way merge needs,
// where the callback form of Each cannot yield control between cells.
// Blocks are read fresh (checksummed, retry-budgeted, cache-bypassing)
// into the iterator's own decoder: a compaction pass over a whole
// generation must not evict the query path's hot blocks, and allocates
// nothing per block once the decoder is warm.
type CellIterator struct {
	r     *IndexedReader
	dec   blockDecoder
	bi    int
	cells []Cell
	pos   int
}

// Iterate positions a new iterator before the file's first cell.
func (r *IndexedReader) Iterate() *CellIterator {
	return &CellIterator{r: r}
}

// Next returns the next cell, or (nil, nil) once the file is exhausted.
// The returned cell (including its Key slice) is only valid until the
// following Next call that crosses a block boundary.
func (it *CellIterator) Next() (*Cell, error) {
	for it.pos >= len(it.cells) {
		if it.bi >= len(it.r.blocks) {
			return nil, nil
		}
		cells, err := it.r.readBlockFresh(&it.dec, it.bi)
		if err != nil {
			return nil, err
		}
		it.r.scanCells.Add(int64(len(cells)))
		it.bi++
		it.cells = cells
		it.pos = 0
	}
	c := &it.cells[it.pos]
	it.pos++
	return c, nil
}
