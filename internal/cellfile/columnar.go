// The columnar block encoding. Storing each cell as an independent
// row record (uvarint point, uvarint key length, key ValueIDs, 32-byte
// aggregate state — what the streaming v1 file does) burns ~37 bytes per
// cell on data that is wildly redundant: within a block the point id
// repeats for hundreds of cells, neighbouring sorted keys share long
// prefixes, the same ValueIDs recur, and most aggregate states are small
// integers dressed up as two fixed 64-bit floats. Inside the container
// (header, sparse index, cuboid directory, CRC footer — see indexed.go)
// each block is laid out column-wise:
//
//	uvarint cell count (must match the index entry)
//	point/key-length runs, covering all cells in order:
//	    uvarint run length,
//	    uvarint point (first run: absolute; later runs: delta, ≥0),
//	    uvarint key length (shared by every cell of the run)
//	value dictionary: uvarint size, then the sorted distinct ValueIDs
//	    of every key in the block (first absolute, then deltas ≥1)
//	key column, one entry per cell with a non-empty key:
//	    uvarint shared-prefix length with the previous cell's key,
//	    then (klen − lcp) uvarint dictionary indexes
//	aggregate column, one packed state per cell (see appendPackedState)
//
// Everything is validated on decode — run totals, dictionary sortedness,
// prefix bounds, index ranges, flag bits, trailing bytes — so a corrupt
// block that slips past the CRC (or is handed to the decoder directly by
// the fuzzer) fails with an error instead of a panic or a giant
// allocation. Decoding must reproduce the exact agg.State bit patterns
// that were encoded: the packed-state flags are chosen by bit-level
// comparisons (never plain float ==, which would conflate 0 and -0), so a
// round trip is byte-equal at the answer layer.
package cellfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"x3/internal/agg"
	"x3/internal/match"
)

// minRecordLen is the smallest per-cell footprint a block can claim:
// amortized, each cell costs at least one key/aggregate byte. It bounds
// how many cells a block of known byte length can claim, which keeps
// corrupt counts from forcing allocations.
const minRecordLen = 2

// maxBlockKeyInts bounds the total decoded key length of one block
// (cells × axes); real blocks hold DefaultBlockCells cells of a handful
// of axes each, so anything past this is a corrupt header trying to force
// a huge allocation.
const maxBlockKeyInts = 1 << 20

// maxKeyLen bounds one key's length, in a block's runs and in an index
// entry's first key alike; no cuboid has anywhere near this many axes.
const maxKeyLen = 1 << 16

// Packed aggregate-state flags. MinV is always present; MaxV and Sum are
// omitted entirely when derivable from MinV and N.
const (
	psMinInt  = 1 << 0 // MinV stored as a zigzag varint integer
	psMaxSame = 1 << 1 // MaxV bit-equal to MinV, omitted
	psMaxInt  = 1 << 2 // MaxV stored as a zigzag varint integer
	psSumNMin = 1 << 3 // Sum bit-equal to MinV×N, omitted
	psSumInt  = 1 << 4 // Sum stored as a zigzag varint integer
	psAll     = psMinInt | psMaxSame | psMaxInt | psSumNMin | psSumInt
)

// maxExactInt is the largest float64 magnitude whose integer neighbourhood
// is exactly representable; beyond it the int64↔float64 round trip is
// lossy, so such values are stored as raw bits.
const maxExactInt = 1 << 53

// packableInt reports whether v survives a float64→int64→float64 round
// trip bit-for-bit. NaN and ±Inf fail the range check; -0 must be excluded
// explicitly (it compares equal to 0 but float64(int64(0)) loses the sign
// bit).
func packableInt(v float64) bool {
	return v == math.Trunc(v) && v >= -maxExactInt && v <= maxExactInt &&
		!(v == 0 && math.Signbit(v))
}

func putVarint(dst []byte, v int64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	return append(dst, buf[:n]...)
}

func putFloatBits(dst []byte, v float64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
	return append(dst, buf[:]...)
}

// appendPackedState appends the packed encoding of s: a flags byte, N as a
// uvarint, then MinV / MaxV / Sum each stored as a zigzag varint when it
// is an exactly-representable integer, as raw 8-byte float bits otherwise,
// or omitted entirely when the flags say it is derivable. All derivability
// checks compare bit patterns, so decode reconstructs s exactly.
func appendPackedState(dst []byte, s agg.State) []byte {
	var flags byte
	minInt := packableInt(s.MinV)
	if minInt {
		flags |= psMinInt
	}
	maxSame := math.Float64bits(s.MaxV) == math.Float64bits(s.MinV)
	maxInt := false
	if maxSame {
		flags |= psMaxSame
	} else if packableInt(s.MaxV) {
		maxInt = true
		flags |= psMaxInt
	}
	sumNMin := math.Float64bits(s.Sum) == math.Float64bits(s.MinV*float64(s.N))
	sumInt := false
	if sumNMin {
		flags |= psSumNMin
	} else if packableInt(s.Sum) {
		sumInt = true
		flags |= psSumInt
	}
	dst = append(dst, flags)
	dst = putUvarint(dst, uint64(s.N))
	if minInt {
		dst = putVarint(dst, int64(s.MinV))
	} else {
		dst = putFloatBits(dst, s.MinV)
	}
	if !maxSame {
		if maxInt {
			dst = putVarint(dst, int64(s.MaxV))
		} else {
			dst = putFloatBits(dst, s.MaxV)
		}
	}
	if !sumNMin {
		if sumInt {
			dst = putVarint(dst, int64(s.Sum))
		} else {
			dst = putFloatBits(dst, s.Sum)
		}
	}
	return dst
}

// blockCursor reads a block's varint columns in place, straight out of
// the block's bytes.
type blockCursor struct {
	b   []byte
	off int
}

var errVarintOverflow = errors.New("varint overflows a 64-bit integer")

// varintErr maps a failed binary.Uvarint/Varint byte count to an error.
func varintErr(n int) error {
	if n == 0 {
		return io.ErrUnexpectedEOF
	}
	return errVarintOverflow
}

// left returns the number of unread bytes.
func (c *blockCursor) left() int { return len(c.b) - c.off }

func (c *blockCursor) uvarint() (uint64, error) {
	if c.off < len(c.b) && c.b[c.off] < 0x80 {
		v := c.b[c.off]
		c.off++
		return uint64(v), nil
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, varintErr(n)
	}
	c.off += n
	return v, nil
}

func (c *blockCursor) varint() (int64, error) {
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		return 0, varintErr(n)
	}
	c.off += n
	return v, nil
}

func (c *blockCursor) byte() (byte, error) {
	if c.off >= len(c.b) {
		return 0, io.ErrUnexpectedEOF
	}
	b := c.b[c.off]
	c.off++
	return b, nil
}

// value reads a packed-state value: a zigzag varint integer when asInt,
// raw big-endian float bits otherwise.
func (c *blockCursor) value(asInt bool) (float64, error) {
	if asInt {
		v, err := c.varint()
		return float64(v), err
	}
	if c.left() < 8 {
		return 0, io.ErrUnexpectedEOF
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(c.b[c.off:]))
	c.off += 8
	return v, nil
}

// decodePackedState reads one packed aggregate state into s. The flag
// byte is fully validated: unknown bits and contradictory combinations (a
// value both omitted and varint-encoded) are corruption, not options.
func decodePackedState(c *blockCursor, s *agg.State) error {
	flags, err := c.byte()
	if err != nil {
		return err
	}
	if flags&^byte(psAll) != 0 {
		return fmt.Errorf("unknown state flags %02x", flags)
	}
	if flags&psMaxSame != 0 && flags&psMaxInt != 0 {
		return fmt.Errorf("contradictory max flags %02x", flags)
	}
	if flags&psSumNMin != 0 && flags&psSumInt != 0 {
		return fmt.Errorf("contradictory sum flags %02x", flags)
	}
	n, err := c.uvarint()
	if err != nil {
		return err
	}
	s.N = int64(n)
	if s.MinV, err = c.value(flags&psMinInt != 0); err != nil {
		return err
	}
	if flags&psMaxSame != 0 {
		s.MaxV = s.MinV
	} else if s.MaxV, err = c.value(flags&psMaxInt != 0); err != nil {
		return err
	}
	if flags&psSumNMin != 0 {
		s.Sum = s.MinV * float64(s.N)
	} else if s.Sum, err = c.value(flags&psSumInt != 0); err != nil {
		return err
	}
	return nil
}

// appendColumnarBlock appends the columnar encoding of cells to dst.
// The cells must be in file order (sorted by point, then key, as
// writeIndexed guarantees); runs additionally break on key-length changes
// so arbitrary cell mixes still encode correctly. No map is ranged over
// anywhere in the encoder — the dictionary is built by sort+dedup and
// looked up by binary search — so the output is deterministic byte for
// byte (the detiter analyzer enforces this).
func appendColumnarBlock(dst []byte, cells []Cell) []byte {
	dst = putUvarint(dst, uint64(len(cells)))
	if len(cells) == 0 {
		return dst
	}
	// Point / key-length runs.
	for i := 0; i < len(cells); {
		j := i + 1
		for j < len(cells) && cells[j].Point == cells[i].Point && len(cells[j].Key) == len(cells[i].Key) {
			j++
		}
		dst = putUvarint(dst, uint64(j-i))
		if i == 0 {
			dst = putUvarint(dst, uint64(cells[0].Point))
		} else {
			dst = putUvarint(dst, uint64(cells[i].Point-cells[i-1].Point))
		}
		dst = putUvarint(dst, uint64(len(cells[i].Key)))
		i = j
	}
	// Value dictionary: sorted distinct ValueIDs across every key.
	var vals []match.ValueID
	for i := range cells {
		vals = append(vals, cells[i].Key...)
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	dict := vals[:0]
	for i, v := range vals {
		if i == 0 || v != dict[len(dict)-1] {
			dict = append(dict, v)
		}
	}
	dst = putUvarint(dst, uint64(len(dict)))
	for i, v := range dict {
		if i == 0 {
			dst = putUvarint(dst, uint64(v))
		} else {
			dst = putUvarint(dst, uint64(v-dict[i-1]))
		}
	}
	// Key column: shared-prefix length against the previous key, then the
	// differing suffix as dictionary indexes.
	var prev []match.ValueID
	for i := range cells {
		key := cells[i].Key
		if len(key) == 0 {
			prev = key
			continue
		}
		lcp := 0
		for lcp < len(key) && lcp < len(prev) && key[lcp] == prev[lcp] {
			lcp++
		}
		dst = putUvarint(dst, uint64(lcp))
		for _, v := range key[lcp:] {
			dst = putUvarint(dst, uint64(sort.Search(len(dict), func(d int) bool { return dict[d] >= v })))
		}
		prev = key
	}
	// Aggregate column.
	for i := range cells {
		dst = appendPackedState(dst, cells[i].State)
	}
	return dst
}

// blockRun is one point/key-length run of a decoded block.
type blockRun struct {
	n    int // cells in the run
	klen int // key length shared by the run's cells
}

// blockDecoder decodes columnar blocks into memory it keeps: the read buffer,
// cells, runs, dictionary and key arena of one block are reused by the
// next, so a warm decoder allocates nothing per block. The cells decode
// returns, keys included, are borrowed until the decoder's next decode.
// forget detaches the current cells and arena, so a caller that keeps
// decoded cells (the block cache) decodes them into memory of their own
// and the decoder's next decode allocates afresh. A blockDecoder is not
// safe for concurrent use.
type blockDecoder struct {
	buf   []byte // the block's bytes, as read (see IndexedReader.readBlockFresh)
	cells []Cell
	runs  []blockRun
	dict  []match.ValueID
	arena []match.ValueID
}

// forget drops the decoder's cells and key arena without reusing them.
func (d *blockDecoder) forget() { d.cells, d.arena = nil, nil }

// heap returns the Go heap the decoder's cells and key arena occupy.
func (d *blockDecoder) heap() int64 {
	return int64(cap(d.cells))*cellBytes + int64(cap(d.arena))*valueBytes
}

// decode parses exactly count cells out of a columnar block, overwriting the
// previous block's. Key slices are carved from the decoder's arena;
// every slot of every returned cell is written, so nothing of an earlier
// block survives into this one.
func (d *blockDecoder) decode(buf []byte, count int) ([]Cell, error) {
	c := blockCursor{b: buf}
	claimed, err := c.uvarint()
	if err != nil {
		return nil, fmt.Errorf("cell count: %w", err)
	}
	if claimed != uint64(count) {
		return nil, fmt.Errorf("block claims %d cells, index says %d", claimed, count)
	}
	if count == 0 {
		if c.left() != 0 {
			return nil, fmt.Errorf("%d stray bytes after empty block", c.left())
		}
		return nil, nil
	}
	if cap(d.cells) < count {
		d.cells = make([]Cell, count)
	}
	cells := d.cells[:count]
	// Point / key-length runs.
	var (
		runs      = d.runs[:0]
		covered   = 0
		point     uint64
		totalKeys = 0
	)
	for covered < count {
		runLen, err := c.uvarint()
		if err != nil {
			return nil, fmt.Errorf("run at cell %d: %w", covered, err)
		}
		if runLen == 0 || runLen > uint64(count-covered) {
			return nil, fmt.Errorf("run at cell %d claims %d of %d remaining cells", covered, runLen, count-covered)
		}
		delta, err := c.uvarint()
		if err != nil {
			return nil, fmt.Errorf("run at cell %d: %w", covered, err)
		}
		if covered == 0 {
			point = delta
		} else {
			point += delta
		}
		if point > 1<<32-1 {
			return nil, fmt.Errorf("run at cell %d: point %d overflows", covered, point)
		}
		klen, err := c.uvarint()
		if err != nil {
			return nil, fmt.Errorf("run at cell %d: %w", covered, err)
		}
		if klen > maxKeyLen {
			return nil, fmt.Errorf("run at cell %d: implausible key length %d", covered, klen)
		}
		totalKeys += int(runLen) * int(klen)
		if totalKeys > maxBlockKeyInts {
			return nil, fmt.Errorf("block claims %d key values", totalKeys)
		}
		run := cells[covered : covered+int(runLen)]
		for i := range run {
			run[i].Point = uint32(point)
		}
		runs = append(runs, blockRun{n: int(runLen), klen: int(klen)})
		covered += int(runLen)
	}
	d.runs = runs
	// Value dictionary: strictly increasing, so deltas after the first
	// entry must be ≥1.
	dictN, err := c.uvarint()
	if err != nil {
		return nil, fmt.Errorf("dictionary: %w", err)
	}
	if dictN > uint64(c.left())+1 {
		return nil, fmt.Errorf("dictionary claims %d entries in %d bytes", dictN, c.left())
	}
	if uint64(cap(d.dict)) < dictN {
		d.dict = make([]match.ValueID, dictN)
	}
	dict := d.dict[:dictN]
	var dv uint64
	for i := range dict {
		v, err := c.uvarint()
		if err != nil {
			return nil, fmt.Errorf("dictionary entry %d: %w", i, err)
		}
		if i == 0 {
			dv = v
		} else {
			if v == 0 {
				return nil, fmt.Errorf("dictionary entry %d not strictly increasing", i)
			}
			dv += v
		}
		if dv > 1<<32-1 {
			return nil, fmt.Errorf("dictionary entry %d value %d overflows", i, dv)
		}
		dict[i] = match.ValueID(dv)
	}
	// Key column: each key is its shared prefix with the previous key plus
	// a suffix of dictionary indexes, carved out of one arena.
	if cap(d.arena) < totalKeys {
		d.arena = make([]match.ValueID, totalKeys)
	}
	arena := d.arena[:totalKeys]
	var prev []match.ValueID
	i, off := 0, 0
	for _, run := range runs {
		klen := run.klen
		for end := i + run.n; i < end; i++ {
			key := arena[off : off+klen : off+klen]
			off += klen
			if klen > 0 {
				lcp, err := c.uvarint()
				if err != nil {
					return nil, fmt.Errorf("key %d prefix: %w", i, err)
				}
				if lcp > uint64(len(prev)) || lcp > uint64(klen) {
					return nil, fmt.Errorf("key %d shared prefix %d exceeds bounds (prev %d, klen %d)", i, lcp, len(prev), klen)
				}
				copy(key, prev[:lcp])
				for k := int(lcp); k < klen; k++ {
					idx, err := c.uvarint()
					if err != nil {
						return nil, fmt.Errorf("key %d value %d: %w", i, k, err)
					}
					if idx >= dictN {
						return nil, fmt.Errorf("key %d value %d: dictionary index %d of %d", i, k, idx, dictN)
					}
					key[k] = dict[idx]
				}
			}
			cells[i].Key = key
			prev = key
		}
	}
	// Aggregate column.
	for i := range cells {
		if err := decodePackedState(&c, &cells[i].State); err != nil {
			return nil, fmt.Errorf("state %d: %w", i, err)
		}
	}
	if c.left() != 0 {
		return nil, fmt.Errorf("%d stray bytes after %d cells", c.left(), len(cells))
	}
	return cells, nil
}
