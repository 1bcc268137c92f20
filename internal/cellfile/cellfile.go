// Package cellfile stores computed cube cells in one file format, the
// indexed cell file (layout in indexed.go, block encoding in columnar.go),
// and reads them back. The paper's runs "write the results into files"
// (§4). A Writer streams cells that arrive in file order straight into
// compressed blocks, holding one block at a time; an IndexedSink accepts
// cells in any order — it is the cube.Sink any cube algorithm computes
// into — and sorts them on the way into a Writer, spilling sorted runs
// once its buffer reaches a bound.
package cellfile

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"unsafe"

	"x3/internal/agg"
	"x3/internal/cube"
	"x3/internal/fault"
	"x3/internal/match"
)

var magic = [4]byte{'X', '3', 'C', 'F'}

// Cell is one stored cube cell.
type Cell struct {
	Point uint32
	Key   []match.ValueID
	State agg.State
}

// compareCells orders cells the way the file stores them: by point, then
// key value by value, a key that is a prefix of another first.
func compareCells(ap uint32, ak []match.ValueID, bp uint32, bk []match.ValueID) int {
	if c := cmp.Compare(ap, bp); c != 0 {
		return c
	}
	return slices.Compare(ak, bk)
}

// sortCells sorts cells into file order.
func sortCells(cells []Cell) {
	slices.SortFunc(cells, func(a, b Cell) int { return compareCells(a.Point, a.Key, b.Point, b.Key) })
}

// errFinished refuses writes to a Writer whose footer is already written.
var errFinished = errors.New("cellfile: write after Finish")

// Writer encodes cells that arrive in file order as an indexed cell file
// on an io.Writer, one block at a time: it holds at most one block of
// cells plus the index and cuboid directory, which grow with the number
// of blocks and cuboids, not cells. It implements cube.Sink; a cell that
// sorts before its predecessor is an error. Finish writes the index and
// footer.
type Writer struct {
	w          io.Writer
	blockCells int
	block      []Cell
	arena      []match.ValueID // the pending block's keys
	buf        []byte          // encoded block scratch
	off        uint64          // file offset of the next block
	index      []blockMeta
	dirPoints  []uint32
	dirCells   []int64
	cells      int64
	lastPoint  uint32
	lastKey    []match.ValueID
	err        error
}

// NewWriter starts an indexed cell file on w with blockCells cells per
// block (0 selects DefaultBlockCells).
func NewWriter(w io.Writer, blockCells int) *Writer {
	if blockCells <= 0 {
		blockCells = DefaultBlockCells
	}
	wr := &Writer{w: w, blockCells: blockCells, off: headerLen}
	_, wr.err = w.Write(append(magic[:], indexedVersionCol))
	return wr
}

// Cell implements cube.Sink. The key is copied.
func (w *Writer) Cell(point uint32, key []match.ValueID, st agg.State) error {
	if w.err != nil {
		return w.err
	}
	if w.cells > 0 && compareCells(point, key, w.lastPoint, w.lastKey) < 0 {
		w.err = fmt.Errorf("cellfile: cell %d%v after %d%v is out of file order", point, key, w.lastPoint, w.lastKey)
		return w.err
	}
	if w.cells == 0 || point != w.lastPoint {
		w.dirPoints = append(w.dirPoints, point)
		w.dirCells = append(w.dirCells, 0)
	}
	w.dirCells[len(w.dirCells)-1]++
	// A key slice stays valid when a later append moves the arena: the old
	// backing array keeps its contents until the block is written.
	start := len(w.arena)
	w.arena = append(w.arena, key...)
	w.block = append(w.block, Cell{Point: point, Key: w.arena[start:len(w.arena):len(w.arena)], State: st})
	w.lastPoint, w.lastKey = point, append(w.lastKey[:0], key...)
	w.cells++
	if len(w.block) == w.blockCells {
		return w.writeBlock()
	}
	return nil
}

// writeBlock encodes and writes the pending block. Whole blocks are
// encoded at once: the columnar sections need every cell of the block in
// hand before any byte is final.
func (w *Writer) writeBlock() error {
	first := &w.block[0]
	if n := len(w.index); n > 0 && compareCells(first.Point, first.Key, w.index[n-1].firstPoint, w.index[n-1].firstKey) == 0 {
		// The index orders blocks by their first cells, strictly, and the
		// reader refuses a file whose index does not.
		w.err = fmt.Errorf("cellfile: cell %d%v fills block %d and starts the next", first.Point, first.Key, n-1)
		return w.err
	}
	w.buf = appendColumnarBlock(w.buf[:0], w.block)
	w.index = append(w.index, blockMeta{
		off: int64(w.off), firstPoint: first.Point, firstKey: slices.Clone(first.Key),
		cells: len(w.block), crc: crc32.Checksum(w.buf, castagnoli),
	})
	if _, err := w.w.Write(w.buf); err != nil {
		w.err = err
		return err
	}
	w.off += uint64(len(w.buf))
	w.block, w.arena = w.block[:0], w.arena[:0]
	return nil
}

// Cells returns the number of cells written so far.
func (w *Writer) Cells() int64 { return w.cells }

// DataBytes returns the encoded byte length of the blocks written so far;
// after Finish it is the file's data section — the size the cost model
// prices a cuboid by.
func (w *Writer) DataBytes() int64 { return int64(w.off) - headerLen }

// Finish writes the last block, the index and the footer. The Writer
// accepts no cells afterwards.
func (w *Writer) Finish() error {
	if w.err != nil {
		return w.err
	}
	if len(w.block) > 0 {
		if err := w.writeBlock(); err != nil {
			return err
		}
	}
	idx := appendIndex(nil, w.index, w.dirPoints, w.dirCells)
	var foot [footerLenCRC]byte
	binary.BigEndian.PutUint64(foot[0:], uint64(w.cells))
	binary.BigEndian.PutUint64(foot[8:], w.off)
	binary.BigEndian.PutUint32(foot[16:], crc32.Checksum(idx, castagnoli))
	copy(foot[20:], indexMagic[:])
	if _, err := w.w.Write(append(idx, foot[:]...)); err != nil {
		w.err = err
		return err
	}
	w.err = errFinished
	return nil
}

var _ cube.Sink = (*Writer)(nil)

// WriteFile creates an indexed cell file at path and streams fill's cells,
// which must arrive in file order, into it through a Writer. The file is
// synced before WriteFile returns, so a rename that follows publishes
// durable bytes. On any failure, fill's included, the partial file is
// removed. inj optionally injects faults into the file writes (site
// cellfile.write). Returns the number of cells written.
func WriteFile(path string, blockCells int, inj *fault.Injector, fill func(*Writer) error) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("cellfile: %w", err)
	}
	n, err := writeCells(f, blockCells, inj, fill)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return 0, err
	}
	return n, nil
}

// writeCells streams fill's cells into f through a buffered Writer and
// flushes it, without syncing. It returns the number of cells written.
func writeCells(f *os.File, blockCells int, inj *fault.Injector, fill func(*Writer) error) (int64, error) {
	bw := bufio.NewWriterSize(inj.Writer("cellfile.write", f), 1<<16)
	w := NewWriter(bw, blockCells)
	err := fill(w)
	if err == nil {
		err = w.Finish()
	}
	if err == nil {
		err = bw.Flush()
	}
	return w.Cells(), err
}

// cellBytes is the heap a held cell takes besides its key values: the
// Cell struct, key slice header included. valueBytes is the heap of one
// key value. Buffered cells (IndexedSink) and cached blocks (BlockCache)
// are both charged in these units.
const (
	cellBytes  = int64(unsafe.Sizeof(Cell{}))
	valueBytes = int64(unsafe.Sizeof(match.ValueID(0)))
)

// minRunCells is the smallest run an IndexedSink spills, so however small
// BufferBytes is, the number of runs Close merges stays bounded.
const minRunCells = 1 << 12

// DefaultBufferBytes is the spill bound of an IndexedSink whose
// BufferBytes is left at 0: without a memory budget, a cube still never
// collects in memory past this many bytes of cells.
const DefaultBufferBytes = 64 << 20

// IndexedSink writes an indexed cell file from cells in any order. It
// implements cube.Sink, so any cube algorithm can compute straight into
// it. Cells are buffered and, on Close, sorted into a Writer. Once the
// buffer holds BufferBytes, it is sorted and spilled as a run — itself an
// indexed cell file beside path — and Close merges the runs. The file is
// the same either way. Sorted hands the same sorted stream to a caller
// that writes the file itself.
type IndexedSink struct {
	path string
	// BlockCells overrides the index block granularity (cells per block);
	// 0 selects DefaultBlockCells. Set it before Close.
	BlockCells int
	// Fault optionally injects write-path faults (crash-safety tests).
	Fault *fault.Injector
	// BufferBytes bounds the heap of the buffered cells, though a run
	// holds at least minRunCells cells; 0 selects DefaultBufferBytes.
	BufferBytes int64
	cells       []Cell
	buffered    int64 // heap of cells, as counted against BufferBytes
	runs        []string
	n           int64
}

// CreateIndexed returns a sink that will write an indexed cell file at
// path when closed.
func CreateIndexed(path string) *IndexedSink {
	return &IndexedSink{path: path}
}

// Cell implements cube.Sink. The key is copied.
func (s *IndexedSink) Cell(point uint32, key []match.ValueID, st agg.State) error {
	bound := s.BufferBytes
	if bound <= 0 {
		bound = DefaultBufferBytes
	}
	if s.buffered >= bound && len(s.cells) >= minRunCells {
		if err := s.spill(); err != nil {
			return err
		}
	}
	s.cells = append(s.cells, Cell{Point: point, Key: slices.Clone(key), State: st})
	s.buffered += cellBytes + valueBytes*int64(len(key))
	s.n++
	return nil
}

// Cells returns the number of cells collected so far.
func (s *IndexedSink) Cells() int64 { return s.n }

// spill writes the sorted buffer as the next run and empties it. A run
// is scratch that Close or Abort removes and no recovery ever reads, so
// unlike a published file it is not synced.
func (s *IndexedSink) spill() error {
	run := fmt.Sprintf("%s.run%d", s.path, len(s.runs))
	f, err := os.Create(run)
	if err != nil {
		return fmt.Errorf("cellfile: %w", err)
	}
	_, err = writeCells(f, s.BlockCells, s.Fault, func(w *Writer) error {
		return s.sortBuffer(func(c *Cell) error { return w.Cell(c.Point, c.Key, c.State) })
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(run)
		return err
	}
	s.runs = append(s.runs, run)
	clear(s.cells)
	s.cells, s.buffered = s.cells[:0], 0
	return nil
}

// sortBuffer sorts the buffered cells and passes each to fn, in order.
func (s *IndexedSink) sortBuffer(fn func(*Cell) error) error {
	sortCells(s.cells)
	for i := range s.cells {
		if err := fn(&s.cells[i]); err != nil {
			return err
		}
	}
	return nil
}

// Sorted streams every collected cell to fn in file order: the buffer is
// sorted in place or, once runs were spilled, spilled as one more run and
// merged with them. Equal cells are all passed on, so a caller can see a
// cube algorithm that emitted a cell twice. Sorted may run more than
// once until Close or Abort; the cell passed to fn is borrowed until fn
// returns.
func (s *IndexedSink) Sorted(fn func(*Cell) error) error {
	if len(s.runs) == 0 {
		return s.sortBuffer(fn)
	}
	if len(s.cells) > 0 {
		if err := s.spill(); err != nil {
			return err
		}
	}
	var rs []*IndexedReader
	defer func() {
		for _, r := range rs {
			r.Close()
		}
	}()
	srcs := make([]Stream, 0, len(s.runs))
	for _, run := range s.runs {
		r, err := OpenIndexed(run)
		if err != nil {
			return err
		}
		rs = append(rs, r)
		srcs = append(srcs, r.All(Verified))
	}
	return Merge(nil, srcs, fn)
}

// Close writes the indexed file, synced to stable storage before it
// returns, so a rename that follows Close publishes durable bytes. Spilled
// runs are merged into it and removed. On failure no file is left at path.
func (s *IndexedSink) Close() error {
	defer s.release()
	_, err := WriteFile(s.path, s.BlockCells, s.Fault, func(w *Writer) error {
		return s.Sorted(func(c *Cell) error { return w.Cell(c.Point, c.Key, c.State) })
	})
	return err
}

// Abort discards the sink without writing a file: the buffered cells are
// dropped and spilled runs removed.
func (s *IndexedSink) Abort() {
	s.cells = nil
	s.release()
}

// release removes the spilled runs.
func (s *IndexedSink) release() {
	for _, run := range s.runs {
		os.Remove(run)
	}
	s.runs = nil
}

var _ cube.Sink = (*IndexedSink)(nil)

// WriteIndexed writes cells (any order; they are sorted in place) as an
// indexed cell file at path.
func WriteIndexed(path string, cells []Cell) error {
	s := CreateIndexed(path)
	s.cells = cells
	return s.Close()
}
