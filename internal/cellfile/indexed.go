// The indexed cell-file format (v5), the package's one format. The cells
// are laid out sorted by (point id, key) with a sparse block index plus a
// per-cuboid directory appended, so a serving layer can answer "give me
// cuboid P" — or "the cells of cuboid P whose keys start with K" — with
// one binary search, one seek and a bounded scan instead of a full-file
// pass. Every data block carries a CRC32-C checksum in its index entry
// and the index section itself is checksummed in the footer, so a
// corrupted read is *detected* — and retried, and ultimately refused —
// instead of served as silently wrong cells. Blocks are stored
// column-wise (see columnar.go). Version 1 was an unindexed row stream,
// versions 2 and 3 row-wise predecessors of this container, and version 4
// this container without first keys in its index; no writer emits them
// any more and the reader rejects them as corrupt.
//
// Layout:
//
//	magic "X3CF", version byte (5)
//	data section, sorted by (point, key): columnar blocks (see columnar.go)
//	index section (at the footer's index offset):
//	    uvarint block count
//	    per block: uvarint absolute offset, uvarint first point,
//	               uvarint cell count, uvarint CRC32-C,
//	               uvarint first key length, then the first key's
//	               values, one uvarint each
//	    uvarint cuboid count
//	    per cuboid: uvarint point, uvarint cell count
//	footer: big-endian uint64 total cell count,
//	    big-endian uint64 index offset,
//	    big-endian uint32 index CRC32-C,
//	    magic "X3IX"
//
// Block cell counts come from the index, and the fixed footer makes
// truncation detection positional rather than sentinel-based. Each
// block's (first point, first key) is its first cell, so the entries are
// strictly increasing and a prefix read binary-searches them for the one
// block its range starts in (see Cursor). Open refuses an index whose
// entries are not strictly increasing, and every block read compares the
// decoded first cell with its entry, so a lying entry fails as ErrCorrupt
// instead of steering a read past cells.
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
	"slices"
	"sort"
	"sync"
	"time"

	"x3/internal/fault"
	"x3/internal/match"
	"x3/internal/obs"
)

// indexedVersionCol is the one indexed format: checksummed container,
// columnar compressed blocks, first keys in the index.
const indexedVersionCol = 5

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

// blockMeta is one sparse-index entry, as a Writer records it and a
// reader loads it.
type blockMeta struct {
	off        int64           // absolute file offset of the block's first record
	length     int64           // byte length of the block (reader only)
	firstPoint uint32          // point id of the block's first cell
	firstKey   []match.ValueID // key of the block's first cell
	cells      int             // number of cells in the block
	crc        uint32          // CRC32-C of the block bytes
}

// appendIndex appends the index section describing blocks and the
// cuboid directory — points, holding cells[i] cells each — to dst.
func appendIndex(dst []byte, blocks []blockMeta, points []uint32, cells []int64) []byte {
	dst = putUvarint(dst, uint64(len(blocks)))
	for _, b := range blocks {
		dst = putUvarint(dst, uint64(b.off))
		dst = putUvarint(dst, uint64(b.firstPoint))
		dst = putUvarint(dst, uint64(b.cells))
		dst = putUvarint(dst, uint64(b.crc))
		dst = putUvarint(dst, uint64(len(b.firstKey)))
		for _, v := range b.firstKey {
			dst = putUvarint(dst, uint64(v))
		}
	}
	dst = putUvarint(dst, uint64(len(points)))
	for i, p := range points {
		dst = putUvarint(dst, uint64(p))
		dst = putUvarint(dst, uint64(cells[i]))
	}
	return dst
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
	err = retry(opt.retries(), opt.backoff(), nil, func() (err error) {
		r, err = loadIndex(f, path, opt)
		return err
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// retry runs op, and re-runs it up to retries more times while it fails,
// sleeping a doubling backoff before each re-run and counting it into c.
// It returns op's last error.
func retry(retries int, backoff time.Duration, c *obs.Counter, op func() error) error {
	err := op()
	for a := 0; err != nil && a < retries; a++ {
		c.Inc()
		time.Sleep(backoff)
		backoff *= 2
		err = op()
	}
	return err
}

// readFull reads len(p) bytes at off with the reader's retry budget:
// transient faults re-roll on a fresh attempt after a doubling backoff.
func (r *IndexedReader) readFull(p []byte, off int64) error {
	err := retry(r.retries, r.backoff, r.retriesC, func() error {
		_, err := r.ra.ReadAt(p, off)
		return err
	})
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
	const minRec = uint64(minRecordLen)
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
	if indexOff < headerLen || indexOff > uint64(size-footLen) {
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
	// Each block entry takes at least 5 bytes; a larger claim cannot
	// parse, so reject it before looping.
	if numBlocks > uint64(len(idx))/5+1 {
		return nil, fmt.Errorf("%w: %s: index claims %d blocks in %d bytes", ErrCorrupt, path, numBlocks, len(idx))
	}
	r.cells = int64(totalCells)
	var (
		sum  int64
		keys []match.ValueID // the blocks' first keys, back to back
	)
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
		klen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: corrupt block entry %d: %w", ErrCorrupt, path, i, err)
		}
		// Each key value takes at least a byte, and no block decodes a key
		// longer than maxKeyLen.
		if klen > maxKeyLen || klen > uint64(br.Len()) {
			return nil, fmt.Errorf("%w: %s: block %d first key claims %d values in %d bytes", ErrCorrupt, path, i, klen, br.Len())
		}
		start := len(keys)
		for k := uint64(0); k < klen; k++ {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("%w: %s: corrupt block entry %d: %w", ErrCorrupt, path, i, err)
			}
			if v > 1<<32-1 {
				return nil, fmt.Errorf("%w: %s: block %d first key value %d overflows", ErrCorrupt, path, i, v)
			}
			keys = append(keys, match.ValueID(v))
		}
		// A later append may move keys; the entries sliced so far keep the
		// old backing array, whose values never change.
		key := keys[start:len(keys):len(keys)]
		if crc > 1<<32-1 {
			return nil, fmt.Errorf("%w: %s: block %d checksum %d overflows", ErrCorrupt, path, i, crc)
		}
		if firstPoint > 1<<32-1 {
			return nil, fmt.Errorf("%w: %s: block %d first point %d overflows", ErrCorrupt, path, i, firstPoint)
		}
		if cells == 0 {
			return nil, fmt.Errorf("%w: %s: block %d holds no cells", ErrCorrupt, path, i)
		}
		if off < headerLen || off >= indexOff {
			return nil, fmt.Errorf("%w: %s: block %d offset %d outside data section", ErrCorrupt, path, i, off)
		}
		if n := len(r.blocks); n > 0 {
			prev := &r.blocks[n-1]
			if int64(off) <= prev.off {
				return nil, fmt.Errorf("%w: %s: block offsets not increasing", ErrCorrupt, path)
			}
			if compareCells(uint32(firstPoint), key, prev.firstPoint, prev.firstKey) <= 0 {
				return nil, fmt.Errorf("%w: %s: block %d first cell %d%v does not follow block %d's %d%v",
					ErrCorrupt, path, i, firstPoint, key, n-1, prev.firstPoint, prev.firstKey)
			}
			prev.length = int64(off) - prev.off
			if uint64(prev.cells) > uint64(prev.length)/minRec+1 {
				return nil, fmt.Errorf("%w: %s: block %d claims %d cells in %d bytes", ErrCorrupt, path, n-1, prev.cells, prev.length)
			}
		}
		r.blocks = append(r.blocks, blockMeta{off: int64(off), firstPoint: uint32(firstPoint), firstKey: key, cells: int(cells), crc: uint32(crc)})
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

// decoders recycles block decoders across reads: each Cursor takes one
// and returns it when it is closed.
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

// readBlock returns block bi's decoded cells. An Indexed read consults
// the cache, if one is attached, first; on a miss the block is read fresh
// and, when keep is set, decoded into memory of its own and cached,
// otherwise decoded into d's scratch, as a Verified read always is.
// Scratch cells are borrowed until d's next decode.
func (r *IndexedReader) readBlock(d *blockDecoder, bi int, mode ReadMode, keep bool) ([]Cell, error) {
	if mode == Verified || r.cache == nil {
		return r.readBlockFresh(d, bi)
	}
	if cells, ok := r.cache.get(r.gen, bi); ok {
		r.cacheHits.Inc()
		return cells, nil
	}
	r.cacheMisses.Inc()
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
// file into d, bypassing the cache, with the reader's retry budget, and
// checks the decoded first cell against the block's index entry. A
// checksum, decode or first-cell failure is retried like a read error: a
// transiently corrupted read re-rolls on the next attempt.
func (r *IndexedReader) readBlockFresh(d *blockDecoder, bi int) ([]Cell, error) {
	b := &r.blocks[bi]
	if int64(cap(d.buf)) < b.length {
		d.buf = make([]byte, b.length)
	}
	buf := d.buf[:b.length]
	var cells []Cell
	err := retry(r.retries, r.backoff, r.retriesC, func() error {
		if _, err := r.ra.ReadAt(buf, b.off); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return fmt.Errorf("%w: %s: block %d: %w", ErrTruncated, r.path, bi, err)
			}
			return fmt.Errorf("cellfile: %s: block %d: %w", r.path, bi, err)
		}
		if got := crc32.Checksum(buf, castagnoli); got != b.crc {
			return fmt.Errorf("%w: %s: block %d checksum %08x, index says %08x", ErrCorrupt, r.path, bi, got, b.crc)
		}
		var err error
		if cells, err = d.decode(buf, b.cells); err != nil {
			return fmt.Errorf("%w: %s: block %d: %w", ErrCorrupt, r.path, bi, err)
		}
		if first := &cells[0]; first.Point != b.firstPoint || !slices.Equal(first.Key, b.firstKey) {
			return fmt.Errorf("%w: %s: block %d starts at %d%v, index says %d%v",
				ErrCorrupt, r.path, bi, first.Point, first.Key, b.firstPoint, b.firstKey)
		}
		return nil
	})
	return cells, err
}

// ctxErr wraps a context failure in the package's cancellation sentinel
// (both errors.Is(err, ErrCancelled) and errors.Is(err, ctx.Err()) hold).
// A nil ctx never cancels.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	return nil
}

// EachCuboidCtx streams cuboid point's cells, in key order, to fn through
// an Indexed cursor (see Cuboid): only the blocks that can contain the
// cuboid are read, cancellation is honoured between blocks, and a cuboid
// larger than the whole cache budget is looked up in the cache but not
// inserted into it. The cell passed to fn is borrowed until fn returns.
func (r *IndexedReader) EachCuboidCtx(ctx context.Context, point uint32, fn func(Cell) error) error {
	return drain(ctx, r.Cuboid(point, nil, Indexed), fn)
}

// Each streams every cell of the file, in (point, key) order, through an
// Indexed cursor: a file larger than the cache budget is not inserted
// into it. Cells are borrowed until fn returns.
func (r *IndexedReader) Each(fn func(Cell) error) error {
	return drain(nil, r.All(Indexed), fn)
}

// drain passes every cell of c to fn and closes c.
func drain(ctx context.Context, c *Cursor, fn func(Cell) error) error {
	defer c.Close()
	for {
		cell, err := c.Next(ctx)
		if cell == nil || err != nil {
			return err
		}
		if err := fn(*cell); err != nil {
			return err
		}
	}
}
