package cellfile

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"x3/internal/agg"
	"x3/internal/match"
)

// strictlySorted reports whether cells are in strictly increasing file
// order.
func strictlySorted(cells []Cell) bool {
	for i := 1; i < len(cells); i++ {
		if compareCells(cells[i-1].Point, cells[i-1].Key, cells[i].Point, cells[i].Key) >= 0 {
			return false
		}
	}
	return true
}

// fuzzSeedIndexed builds a small valid indexed cell file of 4-cell
// blocks and returns its bytes and path.
func fuzzSeedIndexed(tb testing.TB) ([]byte, string) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed.x3ci")
	sink := CreateIndexed(path)
	sink.BlockCells = 4
	var s agg.State
	s.Add(3)
	for p := uint32(0); p < 6; p++ {
		for k := 0; k < 5; k++ {
			if err := sink.Cell(p, []match.ValueID{match.ValueID(k / 2), match.ValueID(k)}, s); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := sink.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data, path
}

// FuzzCellfile throws arbitrary bytes at the indexed reader — open,
// sequential scan, random access and prefix seeks — which must reject
// corrupt input with an error, never panic, and never trust an
// attacker-chosen count or offset enough to allocate unboundedly. The
// seeds cover valid files plus the historically dangerous shapes:
// truncation, forged footers, data after the footer, oversized uvarints,
// headers claiming the retired v1 stream or v2/v3/v4 indexed versions,
// and index entries whose first key is out of order or implausibly long.
// For every input that opens, a prefix read of each cuboid that succeeds
// equals that cuboid's whole read filtered by the prefix.
func FuzzCellfile(f *testing.F) {
	v5, v5Path := fuzzSeedIndexed(f)
	emptyPath := filepath.Join(f.TempDir(), "empty.x3ci")
	if err := CreateIndexed(emptyPath).Close(); err != nil {
		f.Fatal(err)
	}
	empty, err := os.ReadFile(emptyPath)
	if err != nil {
		f.Fatal(err)
	}
	withByte := func(b []byte, at int, set func(byte) byte) []byte {
		out := append([]byte{}, b...)
		out[at] = set(out[at])
		return out
	}
	f.Add(empty)
	f.Add(withByte(v5, 4, func(byte) byte { return 2 })) // retired version 2 header
	f.Add(withByte(v5, 4, func(byte) byte { return 3 })) // retired version 3 header
	f.Add(withByte(v5, 4, func(byte) byte { return 4 })) // retired version 4 header
	f.Add(v5)
	f.Add(v5[:len(v5)-3])                      // footer cut mid-magic
	f.Add(v5[:len(v5)-1])                      // footer magic cut short
	f.Add(v5[:len(v5)-footerLenCRC])           // footer gone entirely
	f.Add(v5[:len(v5)/2])                      // truncated mid-file
	f.Add(append([]byte{}, v5[:headerLen]...)) // header only
	// A retired v1 stream header followed by a corrupt record marker.
	f.Add([]byte{'X', '3', 'C', 'F', 1, 0x7E})
	// A v1 header with an oversized uvarint where its key length was.
	huge := []byte{'X', '3', 'C', 'F', 1, 0x01, 0x00}
	huge = binary.AppendUvarint(huge, 1<<40)
	f.Add(huge)
	// A footer claiming a gigantic cell count over a tiny file.
	lying := append([]byte{}, v5...)
	binary.BigEndian.PutUint64(lying[len(lying)-footerLenCRC:], 1<<50)
	f.Add(lying)
	// An index offset pointing past EOF.
	past := append([]byte{}, v5...)
	binary.BigEndian.PutUint64(past[len(past)-footerLenCRC+8:], 1<<40)
	f.Add(past)
	// A flipped data bit (the per-block CRC's job).
	f.Add(withByte(v5, headerLen+3, func(b byte) byte { return b ^ 0x10 }))
	// Damaged index bytes (the index CRC's job).
	f.Add(withByte(v5, len(v5)-footerLenCRC-2, func(b byte) byte { return b ^ 0x01 }))
	// A footer with a lying index checksum.
	badCRC := append([]byte{}, v5...)
	binary.BigEndian.PutUint32(badCRC[len(badCRC)-footerLenCRC+16:], 0xDEADBEEF)
	f.Add(badCRC)
	// Data after the footer: a second copy of the body appended.
	f.Add(append(append([]byte{}, v5...), v5[headerLen:]...))
	// Columnar shapes: a corrupt value dictionary / run header (any early
	// data byte participates in the varint streams), a truncated column
	// tail, an all-continuation-bits varint run, and a damaged block count
	// over valid columns.
	f.Add(withByte(v5, headerLen+1, func(b byte) byte { return b ^ 0xFF }))
	f.Add(v5[:headerLen+3]) // truncated mid-column
	badRun := append([]byte{}, v5...)
	for i := headerLen; i < headerLen+8 && i < len(badRun); i++ {
		badRun[i] = 0x80 // uvarint that never terminates
	}
	f.Add(badRun)
	indexOff := int(binary.BigEndian.Uint64(v5[len(v5)-footerLenCRC+8:]))
	f.Add(withByte(v5, indexOff, func(b byte) byte { return b ^ 0x01 }))
	f.Add(v5[:len(v5)-footerLenCRC+4]) // truncated footer
	// Consistent index lies, checksum re-sealed: a block whose first cell
	// repeats its predecessor's (out of order), a first key that claims
	// more values than the maximum key length, and a first key that sorts
	// in order but is not its block's (refused by the block's read).
	r, err := OpenIndexed(v5Path)
	if err != nil {
		f.Fatal(err)
	}
	defer r.Close()
	f.Add(rewriteIndex(v5, r, func(b []blockMeta) { b[1].firstPoint, b[1].firstKey = b[0].firstPoint, b[0].firstKey }))
	at := indexOff
	for range 5 { // block count, then block 0's offset, point, cells and CRC
		_, n := binary.Uvarint(v5[at:])
		at += n
	}
	long := binary.AppendUvarint(slices.Clone(v5[:at]), maxKeyLen+1)
	long = append(long, v5[at+1:]...)
	binary.BigEndian.PutUint32(long[len(long)-footerLenCRC+16:], crc32.Checksum(long[indexOff:len(long)-footerLenCRC], castagnoli))
	f.Add(long)
	f.Add(rewriteIndex(v5, r, func(b []blockMeta) { b[1].firstKey = []match.ValueID{b[1].firstKey[0] + 1} }))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.x3cf")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Any outcome but a panic or an unbounded allocation is
		// acceptable; errors are the job. Retries still run on a corrupt
		// block, but without the default backoff's sleeps (200 µs, then
		// 400 µs), which would otherwise take most of each input's time.
		r, err := OpenIndexedWith(path, ReadOptions{RetryBackoff: time.Nanosecond})
		if err != nil {
			return
		}
		defer r.Close()
		_ = r.Each(func(c Cell) error {
			if len(c.Key) > 1<<16 {
				t.Fatalf("reader surfaced an implausible key of %d values", len(c.Key))
			}
			return nil
		})
		for _, p := range r.Points() {
			var whole []Cell
			if err := r.EachCuboidCtx(t.Context(), p, func(c Cell) error {
				whole = append(whole, cloneCell(c))
				return nil
			}); err != nil || !strictlySorted(whole) {
				continue
			}
			for _, prefix := range prefixesOf(whole, p) {
				var got []Cell
				if err := drain(t.Context(), r.Cuboid(p, prefix, Indexed), func(c Cell) error {
					got = append(got, cloneCell(c))
					return nil
				}); err == nil && !sameCells(got, filterPrefix(whole, p, prefix)) {
					t.Fatalf("cuboid %d prefix %v: read %d cells, the whole read filtered holds %d",
						p, prefix, len(got), len(filterPrefix(whole, p, prefix)))
				}
			}
		}
		_ = r.EachCuboidCtx(t.Context(), 1<<31, func(Cell) error { return nil })
	})
}

// FuzzColumnarBlock drives the v4 block decoder directly — below the CRC
// layer that would otherwise reject most mutations — so the column
// parsers themselves (run headers, dictionary deltas, LCP key encoding,
// packed aggregate states) prove panic-free and allocation-bounded on
// arbitrary bytes. Decoded blocks must survive a re-encode round trip.
// One reused decoder decodes a block of another shape, then the input,
// then that block again, and each must equal a fresh decode: a stale
// arena, dictionary or run state left by the previous block, decoded or
// rejected, shows as a difference.
func FuzzColumnarBlock(f *testing.F) {
	var s agg.State
	s.Add(7.5)
	s.Add(-3)
	shapes := [][]Cell{
		nil,
		{{Point: 0, Key: nil, State: s}},
		{
			{Point: 1, Key: []match.ValueID{2, 9}, State: s},
			{Point: 1, Key: []match.ValueID{3, 1}, State: s},
			{Point: 5, Key: []match.ValueID{0}, State: s},
		},
		{
			{Point: 1<<32 - 1, Key: []match.ValueID{1<<32 - 1}, State: s},
		},
	}
	for _, cells := range shapes {
		f.Add(len(cells), appendColumnarBlock(nil, cells))
	}
	f.Add(3, []byte{0x03, 0x80, 0x80, 0x80}) // count 3, runaway varints
	f.Add(1, []byte{0x01, 0x00, 0x00})       // truncated columns
	prior := make([]Cell, 40)
	for i := range prior {
		prior[i] = Cell{Point: uint32(i / 16), Key: []match.ValueID{7, match.ValueID(i), match.ValueID(3 * i)}, State: s}
	}
	priorBuf := appendColumnarBlock(nil, prior)
	f.Fuzz(func(t *testing.T, count int, data []byte) {
		if count < 0 || count > 1<<12 {
			return
		}
		var d blockDecoder
		for i, blk := range []struct {
			buf   []byte
			count int
		}{{priorBuf, len(prior)}, {data, count}, {priorBuf, len(prior)}} {
			got, gerr := d.decode(blk.buf, blk.count)
			want, werr := decodeColumnarBlock(blk.buf, blk.count)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("decode %d: reused decoder says %v, fresh decoder %v", i, gerr, werr)
			}
			if gerr == nil && !sameCells(got, want) {
				t.Fatalf("decode %d: reused decoder's cells differ from a fresh decode", i)
			}
		}
		cells, err := decodeColumnarBlock(data, count)
		if err != nil {
			return
		}
		if len(cells) != count {
			t.Fatalf("decoder returned %d cells for a declared count of %d", len(cells), count)
		}
		for i := range cells {
			if len(cells[i].Key) > 1<<16 {
				t.Fatalf("decoder surfaced an implausible key of %d values", len(cells[i].Key))
			}
		}
		// Accepted bytes must describe a canonical block: re-encoding the
		// decoded cells reproduces a decodable block with equal cells.
		again, err := decodeColumnarBlock(appendColumnarBlock(nil, cells), count)
		if err != nil {
			t.Fatalf("re-encoded block does not decode: %v", err)
		}
		for i := range cells {
			if cells[i].Point != again[i].Point || len(cells[i].Key) != len(again[i].Key) {
				t.Fatalf("cell %d changed across re-encode", i)
			}
		}
	})
}
