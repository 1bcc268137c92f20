// The indexed cell-file format (v4), the package's one format. The cells
// are laid out sorted by (point id, key) with a sparse block index plus a
// per-cuboid directory appended, so a serving layer can answer "give me
// cuboid P" with one binary search, one seek and a bounded scan instead of
// a full-file pass. Every data block carries a CRC32-C checksum in its
// index entry and the index section itself is checksummed in the footer,
// so a corrupted read is *detected* — and retried, and ultimately refused
// — instead of served as silently wrong cells. Blocks are stored
// column-wise (see columnar.go). Version 1 was an unindexed row stream and
// versions 2 and 3 row-wise predecessors of this container; no writer
// emits them any more and the reader rejects them as corrupt.
//
// Layout:
//
//	magic "X3CF", version byte (4)
//	data section, sorted by (point, key): columnar blocks (see columnar.go)
//	index section (at the footer's index offset):
//	    uvarint block count
//	    per block: uvarint absolute offset, uvarint first point,
//	               uvarint cell count, uvarint CRC32-C
//	    uvarint cuboid count
//	    per cuboid: uvarint point, uvarint cell count
//	footer: big-endian uint64 total cell count,
//	    big-endian uint64 index offset,
//	    big-endian uint32 index CRC32-C,
//	    magic "X3IX"
//
// Block cell counts come from the index, and the fixed footer makes
// truncation detection positional rather than sentinel-based.
package cellfile

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"x3/internal/fault"
	"x3/internal/obs"
)

// indexedVersionCol is the one indexed format: checksummed container,
// columnar compressed blocks.
const indexedVersionCol = 4

// footerLenCRC is the fixed byte length of the footer.
const footerLenCRC = 24

var indexMagic = [4]byte{'X', '3', 'I', 'X'}

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// headerLen is magic + version.
const headerLen = 5

// DefaultBlockCells is the block granularity of the sparse index: a new
// block starts every this-many cells.
const DefaultBlockCells = 256

// Read-retry defaults: transient read faults (and transiently corrupted
// buffers caught by the block checksums) are retried with doubling
// backoff before the error surfaces.
const (
	defaultReadRetries  = 2
	defaultRetryBackoff = 200 * time.Microsecond
)

func putUvarint(dst []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	return append(dst, buf[:n]...)
}

// blockMeta is one sparse-index entry of an open reader.
type blockMeta struct {
	off        int64  // absolute file offset of the block's first record
	length     int64  // byte length of the block
	firstPoint uint32 // point id of the block's first cell
	cells      int    // number of cells in the block
	crc        uint32 // CRC32-C of the block bytes
}

// ReadOptions tune an IndexedReader's fault tolerance.
type ReadOptions struct {
	// Fault wraps the reader's file access with injected faults (nil: no
	// injection).
	Fault *fault.Injector
	// Retries is the number of re-read attempts after a failed or
	// checksum-rejected block read; 0 selects the default, negative
	// disables retrying.
	Retries int
	// RetryBackoff is the first retry's backoff (doubling per attempt);
	// 0 selects the default.
	RetryBackoff time.Duration
}

func (o ReadOptions) retries() int {
	if o.Retries < 0 {
		return 0
	}
	if o.Retries == 0 {
		return defaultReadRetries
	}
	return o.Retries
}

func (o ReadOptions) backoff() time.Duration {
	if o.RetryBackoff <= 0 {
		return defaultRetryBackoff
	}
	return o.RetryBackoff
}

// IndexedReader serves cuboid slices out of an indexed cell file. It is safe
// for concurrent use: all file access goes through ReadAt, the metadata
// is immutable after Open, and the optional block cache locks internally.
type IndexedReader struct {
	f       *os.File
	ra      io.ReaderAt // f, possibly behind a fault shim
	path    string
	retries int
	backoff time.Duration
	blocks  []blockMeta
	// points and pointCells are the cuboid directory, sorted by point.
	points     []uint32
	pointCells []int64
	cells      int64
	cache      *BlockCache
	gen        uint64 // cache-key namespace for this reader instance

	// resolved obs handles (nil-safe; see package obs).
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	scanCells   *obs.Counter
	retriesC    *obs.Counter
}

// OpenIndexed opens an indexed cell file and loads its index. Every
// structural claim the file makes (offsets, counts, ordering) is validated
// against the file size before any dependent allocation, so corrupt or
// truncated files fail with a wrapped ErrCorrupt/ErrTruncated rather than
// a panic or an absurd allocation.
func OpenIndexed(path string) (*IndexedReader, error) {
	return OpenIndexedWith(path, ReadOptions{})
}

// OpenIndexedWith opens an indexed cell file with explicit fault-tolerance
// options. The whole index load sits inside the retry budget: a transient
// fault that mangles the header, footer or index bytes is caught by the
// validation (magic, ranges, index CRC) and re-read; only a persistent
// failure surfaces.
func OpenIndexedWith(path string, opt ReadOptions) (*IndexedReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("cellfile: %w", err)
	}
	var r *IndexedReader
	backoff := opt.backoff()
	for a := 0; ; a++ {
		r, err = loadIndex(f, path, opt)
		if err == nil {
			return r, nil
		}
		if a >= opt.retries() {
			break
		}
		time.Sleep(backoff)
		backoff *= 2
	}
	f.Close()
	return nil, err
}

// readFull reads len(p) bytes at off with the reader's retry budget:
// transient faults re-roll on a fresh attempt after a doubling backoff.
func (r *IndexedReader) readFull(p []byte, off int64) error {
	var err error
	backoff := r.backoff
	for a := 0; a <= r.retries; a++ {
		if a > 0 {
			r.retriesC.Inc()
			time.Sleep(backoff)
			backoff *= 2
		}
		_, err = r.ra.ReadAt(p, off)
		if err == nil {
			return nil
		}
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %s: %w", ErrTruncated, r.path, err)
	}
	return err
}

func loadIndex(f *os.File, path string, opt ReadOptions) (*IndexedReader, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	r := &IndexedReader{
		f:       f,
		ra:      opt.Fault.ReaderAt("cellfile.block", f),
		path:    path,
		retries: opt.retries(),
		backoff: opt.backoff(),
		gen:     nextReaderGen(),
	}
	const footLen = int64(footerLenCRC)
	const minRec = uint64(minRecordLenV4)
	if size < headerLen+footLen {
		return nil, fmt.Errorf("%w: %s: too short for an indexed cell file", ErrTruncated, path)
	}
	var hdr [headerLen]byte
	if err := r.readFull(hdr[:], 0); err != nil {
		return nil, err
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, fmt.Errorf("%w: %s is not a cell file", ErrCorrupt, path)
	}
	if hdr[4] != indexedVersionCol {
		return nil, fmt.Errorf("%w: %s: not an indexed cell file (version %d)", ErrCorrupt, path, hdr[4])
	}
	foot := make([]byte, footLen)
	if err := r.readFull(foot, size-footLen); err != nil {
		return nil, err
	}
	if [4]byte(foot[footLen-4:]) != indexMagic {
		return nil, fmt.Errorf("%w: %s: missing index footer", ErrTruncated, path)
	}
	totalCells := binary.BigEndian.Uint64(foot[0:])
	indexOff := binary.BigEndian.Uint64(foot[8:])
	indexCRC := binary.BigEndian.Uint32(foot[16:])
	if indexOff < headerLen || int64(indexOff) > size-footLen {
		return nil, fmt.Errorf("%w: %s: index offset %d out of range", ErrCorrupt, path, indexOff)
	}
	if totalCells > uint64(indexOff-headerLen)/minRec {
		return nil, fmt.Errorf("%w: %s: footer claims %d cells, data section fits at most %d",
			ErrCorrupt, path, totalCells, (indexOff-headerLen)/minRec)
	}
	idx := make([]byte, size-footLen-int64(indexOff))
	if err := r.readFull(idx, int64(indexOff)); err != nil {
		return nil, err
	}
	if got := crc32.Checksum(idx, castagnoli); got != indexCRC {
		return nil, fmt.Errorf("%w: %s: index checksum %08x, footer says %08x", ErrCorrupt, path, got, indexCRC)
	}
	br := bytes.NewReader(idx)
	numBlocks, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: corrupt index: %w", ErrCorrupt, path, err)
	}
	// Each block entry takes at least 3 bytes; a larger claim cannot
	// parse, so reject it before looping.
	if numBlocks > uint64(len(idx))/3+1 {
		return nil, fmt.Errorf("%w: %s: index claims %d blocks in %d bytes", ErrCorrupt, path, numBlocks, len(idx))
	}
	r.cells = int64(totalCells)
	var sum int64
	for i := uint64(0); i < numBlocks; i++ {
		off, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: corrupt block entry %d: %w", ErrCorrupt, path, i, err)
		}
		firstPoint, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: corrupt block entry %d: %w", ErrCorrupt, path, i, err)
		}
		cells, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: corrupt block entry %d: %w", ErrCorrupt, path, i, err)
		}
		crc, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: corrupt block entry %d: %w", ErrCorrupt, path, i, err)
		}
		if crc > 1<<32-1 {
			return nil, fmt.Errorf("%w: %s: block %d checksum %d overflows", ErrCorrupt, path, i, crc)
		}
		if off < headerLen || off >= indexOff {
			return nil, fmt.Errorf("%w: %s: block %d offset %d outside data section", ErrCorrupt, path, i, off)
		}
		if n := len(r.blocks); n > 0 {
			prev := &r.blocks[n-1]
			if int64(off) <= prev.off {
				return nil, fmt.Errorf("%w: %s: block offsets not increasing", ErrCorrupt, path)
			}
			if firstPoint < uint64(prev.firstPoint) {
				return nil, fmt.Errorf("%w: %s: block first points not sorted", ErrCorrupt, path)
			}
			prev.length = int64(off) - prev.off
			if uint64(prev.cells) > uint64(prev.length)/minRec+1 {
				return nil, fmt.Errorf("%w: %s: block %d claims %d cells in %d bytes", ErrCorrupt, path, n-1, prev.cells, prev.length)
			}
		}
		if firstPoint > 1<<32-1 {
			return nil, fmt.Errorf("%w: %s: block %d first point %d overflows", ErrCorrupt, path, i, firstPoint)
		}
		r.blocks = append(r.blocks, blockMeta{off: int64(off), firstPoint: uint32(firstPoint), cells: int(cells), crc: uint32(crc)})
		sum += int64(cells)
	}
	if n := len(r.blocks); n > 0 {
		last := &r.blocks[n-1]
		last.length = int64(indexOff) - last.off
		if uint64(last.cells) > uint64(last.length)/minRec+1 {
			return nil, fmt.Errorf("%w: %s: block %d claims %d cells in %d bytes", ErrCorrupt, path, n-1, last.cells, last.length)
		}
	}
	if sum != int64(totalCells) {
		return nil, fmt.Errorf("%w: %s: index blocks hold %d cells, footer says %d", ErrCorrupt, path, sum, totalCells)
	}
	numCuboids, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: corrupt cuboid directory: %w", ErrCorrupt, path, err)
	}
	if numCuboids > uint64(len(idx))/2+1 {
		return nil, fmt.Errorf("%w: %s: directory claims %d cuboids in %d bytes", ErrCorrupt, path, numCuboids, len(idx))
	}
	var dirSum int64
	for i := uint64(0); i < numCuboids; i++ {
		p, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: corrupt cuboid entry %d: %w", ErrCorrupt, path, i, err)
		}
		c, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: corrupt cuboid entry %d: %w", ErrCorrupt, path, i, err)
		}
		if p > 1<<32-1 {
			return nil, fmt.Errorf("%w: %s: cuboid entry %d point %d overflows", ErrCorrupt, path, i, p)
		}
		if n := len(r.points); n > 0 && uint32(p) <= r.points[n-1] {
			return nil, fmt.Errorf("%w: %s: cuboid directory not sorted", ErrCorrupt, path)
		}
		r.points = append(r.points, uint32(p))
		r.pointCells = append(r.pointCells, int64(c))
		dirSum += int64(c)
	}
	if dirSum != int64(totalCells) {
		return nil, fmt.Errorf("%w: %s: cuboid directory holds %d cells, footer says %d", ErrCorrupt, path, dirSum, totalCells)
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("%w: %s: %d trailing bytes after index", ErrCorrupt, path, br.Len())
	}
	return r, nil
}

// Observe resolves the serving counters (serve.cache.hits,
// serve.cache.misses, serve.scan.cells, cellfile.read.retries) against
// reg. A nil registry leaves observability off.
func (r *IndexedReader) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	r.cacheHits = reg.Counter("serve.cache.hits")
	r.cacheMisses = reg.Counter("serve.cache.misses")
	r.scanCells = reg.Counter("serve.scan.cells")
	r.retriesC = reg.Counter("cellfile.read.retries")
}

// SetCache attaches an LRU block cache. Readers may share one cache;
// entries are keyed per reader instance, so a reader swapped in after a
// refresh never sees a predecessor's blocks.
func (r *IndexedReader) SetCache(c *BlockCache) { r.cache = c }

// NumCells returns the total number of cells in the file.
func (r *IndexedReader) NumCells() int64 { return r.cells }

// DataBytes returns the encoded byte length of the data section (the sum
// of all block lengths, excluding header, index and footer). Together with
// NumCells it gives the cost model a measured bytes-per-cell for pricing
// cuboids that already live in this file.
func (r *IndexedReader) DataBytes() int64 {
	var total int64
	for i := range r.blocks {
		total += r.blocks[i].length
	}
	return total
}

// NumBlocks returns the number of index blocks.
func (r *IndexedReader) NumBlocks() int { return len(r.blocks) }

// Points returns the materialized cuboid ids, sorted.
func (r *IndexedReader) Points() []uint32 {
	out := make([]uint32, len(r.points))
	copy(out, r.points)
	return out
}

// CuboidCells returns the cell count of cuboid point (0 when absent) and
// whether the cuboid is materialized in this file.
func (r *IndexedReader) CuboidCells(point uint32) (int64, bool) {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= point })
	if i < len(r.points) && r.points[i] == point {
		return r.pointCells[i], true
	}
	return 0, false
}

// Path returns the file path the reader was opened on.
func (r *IndexedReader) Path() string { return r.path }

// Close releases the file handle.
func (r *IndexedReader) Close() error { return r.f.Close() }

// decoders recycles block decoders across reads: each EachCuboidCtx,
// ScanCuboid or Each call takes one and returns it when it is done.
var decoders = sync.Pool{New: func() any { return new(blockDecoder) }}

// keeps reports whether a read of cells cells should insert its blocks
// into the cache. A read whose decoded cells alone exceed the whole
// budget could never stay resident — it would only evict everything else
// on its way through — so it decodes into scratch instead. The cell count
// comes from the cuboid directory, so the rule is known before any block
// is read.
func (r *IndexedReader) keeps(cells int64) bool {
	return r.cache != nil && cells*cellBytes <= r.cache.Budget()
}

// readBlock returns block bi's decoded cells. With a cache attached it is
// consulted first; on a miss the block is read fresh and, when keep is
// set, decoded into memory of its own and cached, otherwise decoded into
// d's scratch. Scratch cells are borrowed until d's next decode.
func (r *IndexedReader) readBlock(d *blockDecoder, bi int, keep bool) ([]Cell, error) {
	if r.cache != nil {
		if cells, ok := r.cache.get(r.gen, bi); ok {
			r.cacheHits.Inc()
			return cells, nil
		}
		r.cacheMisses.Inc()
	}
	if !keep {
		return r.readBlockFresh(d, bi)
	}
	d.forget() // the cache owns what this decode allocates
	cells, err := r.readBlockFresh(d, bi)
	heap := d.heap()
	d.forget()
	if err != nil {
		return nil, err
	}
	r.cache.put(r.gen, bi, cells, heap)
	return cells, nil
}

// readBlockFresh reads, checksums and decodes block bi straight from the
// file into d, bypassing the cache, with the reader's retry budget. A
// checksum or decode failure is retried like a read error: a transiently
// corrupted read re-rolls on the next attempt.
func (r *IndexedReader) readBlockFresh(d *blockDecoder, bi int) ([]Cell, error) {
	b := &r.blocks[bi]
	if int64(cap(d.buf)) < b.length {
		d.buf = make([]byte, b.length)
	}
	buf := d.buf[:b.length]
	var lastErr error
	backoff := r.backoff
	for a := 0; a <= r.retries; a++ {
		if a > 0 {
			r.retriesC.Inc()
			time.Sleep(backoff)
			backoff *= 2
		}
		if _, err := r.ra.ReadAt(buf, b.off); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				err = fmt.Errorf("%w: %s: block %d: %w", ErrTruncated, r.path, bi, err)
			} else {
				err = fmt.Errorf("cellfile: %s: block %d: %w", r.path, bi, err)
			}
			lastErr = err
			continue
		}
		if got := crc32.Checksum(buf, castagnoli); got != b.crc {
			lastErr = fmt.Errorf("%w: %s: block %d checksum %08x, index says %08x", ErrCorrupt, r.path, bi, got, b.crc)
			continue
		}
		cells, err := d.decode(buf, b.cells)
		if err != nil {
			lastErr = fmt.Errorf("%w: %s: block %d: %w", ErrCorrupt, r.path, bi, err)
			continue
		}
		return cells, nil
	}
	return nil, lastErr
}

// ctxErr wraps a context failure in the package's cancellation sentinel
// (both errors.Is(err, ErrCancelled) and errors.Is(err, ctx.Err()) hold).
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	return nil
}

// yieldCuboid passes the cells of one block that belong to cuboid point
// to fn, in order; done reports that a later cuboid began.
func yieldCuboid(cells []Cell, point uint32, fn func(Cell) error) (done bool, err error) {
	for i := range cells {
		c := &cells[i]
		if c.Point < point {
			continue
		}
		if c.Point > point {
			return true, nil
		}
		if err := fn(*c); err != nil {
			return true, err
		}
	}
	return false, nil
}

// EachCuboid streams cuboid point's cells, in key order, to fn. Only the
// blocks that can contain the cuboid are read: a binary search finds the
// first candidate block and the scan stops at the first cell of a later
// cuboid. Every decoded cell — including same-block neighbours that are
// skipped — counts toward serve.scan.cells, so the counter reflects real
// read amplification.
//
// The cell passed to fn, its Key included, is borrowed: it is valid only
// until fn returns, and fn must not modify it. A caller that keeps a key
// copies it. The same holds for ScanCuboid and Each.
func (r *IndexedReader) EachCuboid(point uint32, fn func(Cell) error) error {
	//x3:nolint(ctxflow) EachCuboid is the context-less compatibility entry point; it IS the entry layer
	return r.EachCuboidCtx(context.Background(), point, fn)
}

// EachCuboidCtx is EachCuboid under a context: cancellation and deadlines
// are honoured between blocks, surfacing as a wrapped ErrCancelled. A
// cuboid larger than the whole cache budget is looked up in the cache but
// not inserted into it (see keeps).
func (r *IndexedReader) EachCuboidCtx(ctx context.Context, point uint32, fn func(Cell) error) error {
	n, ok := r.CuboidCells(point)
	if !ok {
		return nil
	}
	keep := r.keeps(n)
	d := decoders.Get().(*blockDecoder)
	defer decoders.Put(d)
	// First block that could contain the cuboid: the one before the first
	// block starting at a later point (the cuboid's first cells can sit
	// at the tail of a block whose firstPoint is smaller).
	bi := sort.Search(len(r.blocks), func(i int) bool { return r.blocks[i].firstPoint >= point })
	if bi > 0 {
		bi--
	}
	for ; bi < len(r.blocks) && r.blocks[bi].firstPoint <= point; bi++ {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		cells, err := r.readBlock(d, bi, keep)
		if err != nil {
			return err
		}
		r.scanCells.Add(int64(len(cells)))
		if done, err := yieldCuboid(cells, point, fn); done || err != nil {
			return err
		}
	}
	return nil
}

// ScanCuboid streams cuboid point's cells by a sequential, cache-bypassing
// walk of the data section — the degraded fallback when the fast indexed
// path keeps failing. Every block is re-read fresh from the file (with the
// retry budget) and re-verified against its checksum, so a transient
// corruption that poisoned the fast path gets a genuinely independent
// second chance; a persistent corruption still fails closed. Cells are
// borrowed, as for EachCuboid.
func (r *IndexedReader) ScanCuboid(ctx context.Context, point uint32, fn func(Cell) error) error {
	if _, ok := r.CuboidCells(point); !ok {
		return nil
	}
	d := decoders.Get().(*blockDecoder)
	defer decoders.Put(d)
	for bi := range r.blocks {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if r.blocks[bi].firstPoint > point {
			return nil
		}
		cells, err := r.readBlockFresh(d, bi)
		if err != nil {
			return err
		}
		r.scanCells.Add(int64(len(cells)))
		if done, err := yieldCuboid(cells, point, fn); done || err != nil {
			return err
		}
	}
	return nil
}

// Each streams every cell of the file, in (point, key) order. Cells are
// borrowed, as for EachCuboid; a file larger than the cache budget is not
// inserted into it.
func (r *IndexedReader) Each(fn func(Cell) error) error {
	keep := r.keeps(r.cells)
	d := decoders.Get().(*blockDecoder)
	defer decoders.Put(d)
	for bi := range r.blocks {
		cells, err := r.readBlock(d, bi, keep)
		if err != nil {
			return err
		}
		r.scanCells.Add(int64(len(cells)))
		for i := range cells {
			if err := fn(cells[i]); err != nil {
				return err
			}
		}
	}
	return nil
}
