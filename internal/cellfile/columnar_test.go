package cellfile

import (
	"io"
	"math"
	"path/filepath"
	"testing"

	"x3/internal/agg"
	"x3/internal/cube"
	"x3/internal/match"
)

// decodeColumnarBlock decodes one block with a fresh decoder, so the
// cells it returns are the caller's.
func decodeColumnarBlock(buf []byte, count int) ([]Cell, error) {
	return new(blockDecoder).decode(buf, count)
}

// TestColumnarCompression asserts the acceptance floor directly: the
// columnar data section must be at least 3x smaller than the same cells
// as row-wise records (point, key length, key, 32-byte state — the
// encoding of the retired v3 blocks) on real cube data.
func TestColumnarCompression(t *testing.T) {
	lat := makeLattice(t)
	set := makeSet(t, lat, 2000, 3)
	sink := CreateIndexed(filepath.Join(t.TempDir(), "cube.x3ci"))
	in := &cube.Input{Lattice: lat, Source: set, Dicts: set.Dicts}
	if _, err := (cube.Counter{}).Run(in, sink); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenIndexed(sink.path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var rowBytes int64
	if err := r.Each(func(c Cell) error {
		row := putUvarint(nil, uint64(c.Point))
		row = putUvarint(row, uint64(len(c.Key)))
		for _, v := range c.Key {
			row = putUvarint(row, uint64(v))
		}
		rowBytes += int64(len(row)) + agg.EncodedSize
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	colBytes, cells := r.DataBytes(), r.NumCells()
	ratio := float64(rowBytes) / float64(colBytes)
	t.Logf("row-wise %d bytes, columnar %d bytes over %d cells (%.2fx, %.2f→%.2f bytes/cell)",
		rowBytes, colBytes, cells, ratio,
		float64(rowBytes)/float64(cells), float64(colBytes)/float64(cells))
	if ratio < 3 {
		t.Fatalf("columnar blocks compress only %.2fx vs row-wise records, want ≥3x", ratio)
	}
}

// TestPackedStateBitExact round-trips adversarial aggregate states through
// the packed encoding and requires the 32-byte canonical encoding to come
// back bit-identical — the float traps (-0, NaN, ±Inf, 2^53 edges,
// sum==min×n coincidences with differing signs) are exactly where a naive
// float== packer silently changes answer bytes.
func TestPackedStateBitExact(t *testing.T) {
	inf := math.Inf(1)
	states := []agg.State{
		{},
		{N: 1, Sum: 1, MinV: 1, MaxV: 1},
		{N: 3, Sum: 6, MinV: 1, MaxV: 3},
		{N: 2, Sum: 0, MinV: math.Copysign(0, -1), MaxV: 0},
		{N: 2, Sum: math.Copysign(0, -1), MinV: math.Copysign(0, -1), MaxV: 0},
		{N: 1, Sum: math.Copysign(0, -1), MinV: 0, MaxV: 0},
		{N: 5, Sum: math.NaN(), MinV: math.NaN(), MaxV: math.NaN()},
		{N: 1, Sum: inf, MinV: -inf, MaxV: inf},
		{N: 4, Sum: 1 << 53, MinV: -(1 << 53), MaxV: 1 << 53},
		{N: 4, Sum: 1<<53 + 2, MinV: -(1<<53 + 2), MaxV: 1<<53 + 2},
		{N: 2, Sum: 0.5, MinV: 0.25, MaxV: 0.25},
		{N: 3, Sum: 0.30000000000000004, MinV: 0.1, MaxV: 0.1},
		{N: 1 << 40, Sum: 1 << 41, MinV: 2, MaxV: 2},
		{N: 7, Sum: -21, MinV: -3, MaxV: -3},
		{N: 0, Sum: 0, MinV: inf, MaxV: -inf},
	}
	for i, s := range states {
		c := blockCursor{b: appendPackedState(nil, s)}
		var got agg.State
		if err := decodePackedState(&c, &got); err != nil {
			t.Fatalf("state %d (%+v): decode: %v", i, s, err)
		}
		if c.left() != 0 {
			t.Fatalf("state %d: %d bytes left over", i, c.left())
		}
		var a, b [agg.EncodedSize]byte
		s.Encode(a[:])
		got.Encode(b[:])
		if a != b {
			t.Fatalf("state %d: round trip %+v -> %+v (encodings differ)", i, s, got)
		}
	}
}

// TestColumnarBlockRoundTrip covers block shapes the cube algorithms do
// not produce: mixed key lengths under one point, empty keys, value-id
// extremes, empty blocks.
func TestColumnarBlockRoundTrip(t *testing.T) {
	blocks := [][]Cell{
		nil,
		{{Point: 0, State: agg.State{N: 1, Sum: 1, MinV: 1, MaxV: 1}}},
		{
			{Point: 7, Key: []match.ValueID{0}, State: agg.State{N: 2, Sum: 3, MinV: 1, MaxV: 2}},
			{Point: 7, Key: []match.ValueID{0, 4}, State: agg.State{N: 1, Sum: 5, MinV: 5, MaxV: 5}},
			{Point: 7, Key: []match.ValueID{0, 4, 4}, State: agg.State{N: 1, Sum: -1, MinV: -1, MaxV: -1}},
			{Point: 9, Key: []match.ValueID{1<<32 - 1}, State: agg.State{N: 1, Sum: 0.5, MinV: 0.5, MaxV: 0.5}},
		},
		{
			{Point: 1 << 31, Key: []match.ValueID{5, 5, 5}, State: agg.State{}},
			{Point: 1 << 31, Key: []match.ValueID{5, 5, 6}, State: agg.State{N: 3}},
			{Point: 1<<32 - 1, State: agg.State{N: 1, Sum: 2, MinV: 2, MaxV: 2}},
		},
	}
	for i, cells := range blocks {
		buf := appendColumnarBlock(nil, cells)
		got, err := decodeColumnarBlock(buf, len(cells))
		if err != nil {
			t.Fatalf("block %d: decode: %v", i, err)
		}
		if len(got) != len(cells) {
			t.Fatalf("block %d: %d cells, want %d", i, len(got), len(cells))
		}
		for j := range got {
			if got[j].Point != cells[j].Point {
				t.Fatalf("block %d cell %d: point %d, want %d", i, j, got[j].Point, cells[j].Point)
			}
			if len(got[j].Key) != len(cells[j].Key) {
				t.Fatalf("block %d cell %d: key %v, want %v", i, j, got[j].Key, cells[j].Key)
			}
			for k := range got[j].Key {
				if got[j].Key[k] != cells[j].Key[k] {
					t.Fatalf("block %d cell %d: key %v, want %v", i, j, got[j].Key, cells[j].Key)
				}
			}
			if got[j].State != cells[j].State {
				t.Fatalf("block %d cell %d: state %+v, want %+v", i, j, got[j].State, cells[j].State)
			}
		}
	}
}

// TestColumnarDecodeRejectsCorruption mutates every byte of a valid block
// one at a time; the decoder must either error out or return cells, never
// panic or over-allocate (the fuzzer does this harder, this is the quick
// deterministic version).
func TestColumnarDecodeRejectsCorruption(t *testing.T) {
	cells := []Cell{
		{Point: 3, Key: []match.ValueID{1, 2}, State: agg.State{N: 2, Sum: 3, MinV: 1, MaxV: 2}},
		{Point: 3, Key: []match.ValueID{1, 3}, State: agg.State{N: 1, Sum: 9, MinV: 9, MaxV: 9}},
		{Point: 5, Key: []match.ValueID{2, 2}, State: agg.State{N: 4, Sum: 2.5, MinV: 0.25, MaxV: 1}},
	}
	valid := appendColumnarBlock(nil, cells)
	for i := range valid {
		for _, delta := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), valid...)
			mut[i] ^= delta
			decodeColumnarBlock(mut, len(cells)) // must not panic
		}
	}
	// Truncations at every length.
	for n := range valid {
		decodeColumnarBlock(valid[:n], len(cells))
	}
	// A wrong index count must be rejected even when the bytes are valid.
	if _, err := decodeColumnarBlock(valid, len(cells)+1); err == nil {
		t.Error("decoder accepted a block whose cell count disagrees with the index")
	}
}

// TestEncodedCellsBytes cross-checks the cost model's pricing — cells
// streamed through a Writer that discards its output — against the file:
// the priced bytes must equal the real data section.
func TestEncodedCellsBytes(t *testing.T) {
	lat := makeLattice(t)
	set := makeSet(t, lat, 500, 4)
	path := filepath.Join(t.TempDir(), "est.x3ci")
	writeCube(t, lat, set, path)
	r, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	w := NewWriter(io.Discard, 0)
	if err := r.Each(func(c Cell) error { return w.Cell(c.Point, c.Key, c.State) }); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if got, want := w.DataBytes(), r.DataBytes(); got != want {
		t.Fatalf("priced %d bytes, file data section = %d", got, want)
	}
}
