// The v4 columnar block encoding. Storing each cell as an independent
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
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"x3/internal/agg"
	"x3/internal/match"
)

// minRecordLenV4 is the smallest per-cell footprint a v4 block can claim:
// amortized, each cell costs at least one key/aggregate byte. It bounds
// how many cells a block of known byte length can claim, which keeps
// corrupt counts from forcing allocations.
const minRecordLenV4 = 2

// maxBlockKeyInts bounds the total decoded key length of one block
// (cells × axes); real blocks hold DefaultBlockCells cells of a handful
// of axes each, so anything past this is a corrupt header trying to force
// a huge allocation.
const maxBlockKeyInts = 1 << 20

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

func readFloatBits(br *bytes.Reader) (float64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.BigEndian.Uint64(buf[:])), nil
}

// decodePackedState reads one packed aggregate state. The flag byte is
// fully validated: unknown bits and contradictory combinations (a value
// both omitted and varint-encoded) are corruption, not options.
func decodePackedState(br *bytes.Reader) (agg.State, error) {
	var s agg.State
	flags, err := br.ReadByte()
	if err != nil {
		return s, err
	}
	if flags&^byte(psAll) != 0 {
		return s, fmt.Errorf("unknown state flags %02x", flags)
	}
	if flags&psMaxSame != 0 && flags&psMaxInt != 0 {
		return s, fmt.Errorf("contradictory max flags %02x", flags)
	}
	if flags&psSumNMin != 0 && flags&psSumInt != 0 {
		return s, fmt.Errorf("contradictory sum flags %02x", flags)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return s, err
	}
	s.N = int64(n)
	if flags&psMinInt != 0 {
		v, err := binary.ReadVarint(br)
		if err != nil {
			return s, err
		}
		s.MinV = float64(v)
	} else if s.MinV, err = readFloatBits(br); err != nil {
		return s, err
	}
	switch {
	case flags&psMaxSame != 0:
		s.MaxV = s.MinV
	case flags&psMaxInt != 0:
		v, err := binary.ReadVarint(br)
		if err != nil {
			return s, err
		}
		s.MaxV = float64(v)
	default:
		if s.MaxV, err = readFloatBits(br); err != nil {
			return s, err
		}
	}
	switch {
	case flags&psSumNMin != 0:
		s.Sum = s.MinV * float64(s.N)
	case flags&psSumInt != 0:
		v, err := binary.ReadVarint(br)
		if err != nil {
			return s, err
		}
		s.Sum = float64(v)
	default:
		if s.Sum, err = readFloatBits(br); err != nil {
			return s, err
		}
	}
	return s, nil
}

// appendColumnarBlock appends the v4 columnar encoding of cells to dst.
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

// decodeColumnarBlock parses exactly count cells out of a v4 block. Key
// slices are carved from one shared arena (decoded blocks are treated as
// immutable by every caller, cached or not).
func decodeColumnarBlock(buf []byte, count int) ([]Cell, error) {
	br := bytes.NewReader(buf)
	claimed, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("cell count: %w", err)
	}
	if claimed != uint64(count) {
		return nil, fmt.Errorf("block claims %d cells, index says %d", claimed, count)
	}
	if count == 0 {
		if br.Len() != 0 {
			return nil, fmt.Errorf("%d stray bytes after empty block", br.Len())
		}
		return nil, nil
	}
	cells := make([]Cell, count)
	klens := make([]int, count)
	// Point / key-length runs.
	var (
		covered   = 0
		point     uint64
		totalKeys = 0
	)
	for covered < count {
		runLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("run at cell %d: %w", covered, err)
		}
		if runLen == 0 || runLen > uint64(count-covered) {
			return nil, fmt.Errorf("run at cell %d claims %d of %d remaining cells", covered, runLen, count-covered)
		}
		delta, err := binary.ReadUvarint(br)
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
		klen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("run at cell %d: %w", covered, err)
		}
		if klen > 1<<16 {
			return nil, fmt.Errorf("run at cell %d: implausible key length %d", covered, klen)
		}
		totalKeys += int(runLen) * int(klen)
		if totalKeys > maxBlockKeyInts {
			return nil, fmt.Errorf("block claims %d key values", totalKeys)
		}
		for i := 0; i < int(runLen); i++ {
			cells[covered+i].Point = uint32(point)
			klens[covered+i] = int(klen)
		}
		covered += int(runLen)
	}
	// Value dictionary: strictly increasing, so deltas after the first
	// entry must be ≥1.
	dictN, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("dictionary: %w", err)
	}
	if dictN > uint64(br.Len())+1 {
		return nil, fmt.Errorf("dictionary claims %d entries in %d bytes", dictN, br.Len())
	}
	dict := make([]match.ValueID, dictN)
	var dv uint64
	for i := range dict {
		d, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("dictionary entry %d: %w", i, err)
		}
		if i == 0 {
			dv = d
		} else {
			if d == 0 {
				return nil, fmt.Errorf("dictionary entry %d not strictly increasing", i)
			}
			dv += d
		}
		if dv > 1<<32-1 {
			return nil, fmt.Errorf("dictionary entry %d value %d overflows", i, dv)
		}
		dict[i] = match.ValueID(dv)
	}
	// Key column: each key is its shared prefix with the previous key plus
	// a suffix of dictionary indexes, carved out of one arena.
	arena := make([]match.ValueID, totalKeys)
	var prev []match.ValueID
	off := 0
	for i := range cells {
		klen := klens[i]
		key := arena[off : off+klen : off+klen]
		off += klen
		if klen > 0 {
			lcp, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("key %d prefix: %w", i, err)
			}
			if lcp > uint64(len(prev)) || lcp > uint64(klen) {
				return nil, fmt.Errorf("key %d shared prefix %d exceeds bounds (prev %d, klen %d)", i, lcp, len(prev), klen)
			}
			copy(key, prev[:lcp])
			for k := int(lcp); k < klen; k++ {
				idx, err := binary.ReadUvarint(br)
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
	// Aggregate column.
	for i := range cells {
		st, err := decodePackedState(br)
		if err != nil {
			return nil, fmt.Errorf("state %d: %w", i, err)
		}
		cells[i].State = st
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("%d stray bytes after %d cells", br.Len(), len(cells))
	}
	return cells, nil
}

// EncodedCellsBytes returns the total v4-encoded byte size of cells at the
// given block granularity, without writing anything — the cost model uses
// it to price a cuboid's residency before deciding to materialize it. The
// cells must be in file order for representative prefix compression.
func EncodedCellsBytes(cells []Cell, blockCells int) int64 {
	if blockCells <= 0 {
		blockCells = DefaultBlockCells
	}
	var total int64
	var buf []byte
	for i := 0; i < len(cells); i += blockCells {
		j := i + blockCells
		if j > len(cells) {
			j = len(cells)
		}
		buf = appendColumnarBlock(buf[:0], cells[i:j])
		total += int64(len(buf))
	}
	return total
}
