package cellfile

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"x3/internal/agg"
	"x3/internal/cube"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/pattern"
)

func makeLattice(t *testing.T) *lattice.Lattice {
	t.Helper()
	q := &pattern.CubeQuery{
		FactVar:  "$f",
		FactPath: pattern.MustParsePath("//f"),
		Agg:      pattern.Count,
		Axes: []pattern.AxisSpec{
			{Var: "$a", Path: pattern.MustParsePath("/a"), Relax: pattern.RelaxSet(0).With(pattern.LND)},
			{Var: "$b", Path: pattern.MustParsePath("/b"), Relax: pattern.RelaxSet(0).With(pattern.LND)},
		},
	}
	lat, err := lattice.New(q)
	if err != nil {
		t.Fatal(err)
	}
	return lat
}

func makeSet(t *testing.T, lat *lattice.Lattice, n int, seed int64) *match.Set {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	set := &match.Set{Lattice: lat, Dicts: []*match.Dict{match.NewDict(), match.NewDict()}}
	for i := 0; i < 8; i++ {
		set.Dicts[0].ID(string(rune('a' + i)))
		set.Dicts[1].ID(string(rune('a' + i)))
	}
	for i := 0; i < n; i++ {
		f := &match.Fact{ID: int64(i), Key: "k", Measure: 1}
		f.Axes = [][][]match.ValueID{
			{{match.ValueID(rng.Intn(8))}},
			{{match.ValueID(rng.Intn(8))}},
		}
		set.Facts = append(set.Facts, f)
	}
	return set
}

// cloneCell copies a borrowed cell, key included, so it can be kept.
func cloneCell(c Cell) Cell {
	c.Key = slices.Clone(c.Key)
	return c
}

// eachFile opens the indexed file at path and streams every cell to fn.
func eachFile(path string, fn func(Cell) error) error {
	r, err := OpenIndexed(path)
	if err != nil {
		return err
	}
	defer r.Close()
	return r.Each(fn)
}

// writeCube computes the COUNTER cube of set straight into an indexed sink
// at path.
func writeCube(t *testing.T, lat *lattice.Lattice, set *match.Set, path string) {
	t.Helper()
	sink := CreateIndexed(path)
	in := &cube.Input{Lattice: lat, Source: set, Dicts: set.Dicts}
	if _, err := (cube.Counter{}).Run(in, sink); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTripThroughAlgorithm computes a cube straight into a cell file
// and compares the read-back contents with an in-memory Result.
func TestRoundTripThroughAlgorithm(t *testing.T) {
	lat := makeLattice(t)
	set := makeSet(t, lat, 200, 1)
	path := filepath.Join(t.TempDir(), "cube.x3ci")
	writeCube(t, lat, set, path)

	want, err := cube.RunOracle(lat, set, set.Dicts)
	if err != nil {
		t.Fatal(err)
	}
	read := int64(0)
	err = eachFile(path, func(c Cell) error {
		read++
		p := lat.FromID(c.Point)
		s, ok := want.State(p, c.Key)
		if !ok {
			t.Fatalf("cell %v/%v not in oracle", p, c.Key)
		}
		if s.N != c.State.N || s.Sum != c.State.Sum {
			t.Fatalf("cell %v/%v state %+v, want %+v", p, c.Key, c.State, s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if read != want.Cells {
		t.Fatalf("read %d cells, oracle has %d", read, want.Cells)
	}
}

// TestTruncationDetected cuts a valid file at every byte offset: each
// prefix must be refused, and refused with a sentinel — never a bare
// io.EOF from whichever field the cut happened to land in.
func TestTruncationDetected(t *testing.T) {
	lat := makeLattice(t)
	set := makeSet(t, lat, 50, 2)
	dir := t.TempDir()
	path := filepath.Join(dir, "cube.x3ci")
	writeCube(t, lat, set, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.x3ci")
	for n := 0; n < len(data); n++ {
		if err := os.WriteFile(cut, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		err := eachFile(cut, func(Cell) error { return nil })
		if err == nil {
			t.Fatalf("cell file truncated to %d of %d bytes read without error", n, len(data))
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d of %d bytes: %v; want ErrTruncated/ErrCorrupt", n, len(data), err)
		}
	}
}

// TestTrailerCountMismatchRejected: a footer whose cell count disagrees
// with the index, and a file with data after its footer — a valid file
// with a second copy of its body appended, whose footer then covers only
// a prefix — must both be refused rather than read as a silently
// truncated cube.
func TestTrailerCountMismatchRejected(t *testing.T) {
	lat := makeLattice(t)
	set := makeSet(t, lat, 50, 9)
	dir := t.TempDir()
	path := filepath.Join(dir, "cube.x3ci")
	writeCube(t, lat, set, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	bumped := append([]byte{}, data...)
	bumped[len(bumped)-footerLenCRC+7]++
	miscounted := filepath.Join(dir, "miscounted.x3ci")
	if err := os.WriteFile(miscounted, bumped, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := eachFile(miscounted, func(Cell) error { return nil }); err == nil {
		t.Error("footer count mismatch read without error")
	}

	early := append([]byte{}, data...)
	early = append(early, data[headerLen:]...)
	earlyPath := filepath.Join(dir, "early.x3ci")
	if err := os.WriteFile(earlyPath, early, 0o644); err != nil {
		t.Fatal(err)
	}
	var read int
	err = eachFile(earlyPath, func(Cell) error { read++; return nil })
	if err == nil {
		t.Errorf("data after the footer read without error (%d cells read)", read)
	}
}

func TestLargePointIDsSurvive(t *testing.T) {
	// Point IDs whose uvarint encoding spans several bytes must round-trip.
	path := filepath.Join(t.TempDir(), "big.x3ci")
	sink := CreateIndexed(path)
	var s agg.State
	s.Add(1)
	pts := []uint32{0, 1, 127, 128, 255, 1 << 20, 1<<32 - 1}
	for _, p := range pts {
		if err := sink.Cell(p, []match.ValueID{match.ValueID(p)}, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	i := 0
	err := eachFile(path, func(c Cell) error {
		if c.Point != pts[i] || c.Key[0] != match.ValueID(pts[i]) {
			t.Fatalf("cell %d: %+v, want point %d", i, c, pts[i])
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(pts) {
		t.Fatalf("read %d cells", i)
	}
}

func TestOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenIndexed(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, bytes.Repeat([]byte("nope"), 10), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenIndexed(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: %v; want ErrCorrupt", err)
	}
	// The retired v1 stream: a header, one record marker, then garbage.
	garbled := filepath.Join(dir, "garbled")
	if err := os.WriteFile(garbled, []byte{'X', '3', 'C', 'F', 1, 0x7E}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := eachFile(garbled, func(Cell) error { return nil }); err == nil {
		t.Error("v1 stream accepted")
	}
}

func TestEmptyCube(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.x3ci")
	if err := CreateIndexed(path).Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := eachFile(path, func(Cell) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("cells = %d", n)
	}
}

// TestWriterRejectsOutOfOrder: the streaming writer holds one block, so
// it cannot sort; a cell before its predecessor must fail, not write a
// file whose index lies.
func TestWriterRejectsOutOfOrder(t *testing.T) {
	var s agg.State
	s.Add(1)
	for _, c := range []struct {
		name   string
		first  Cell
		second Cell
	}{
		{"point", Cell{Point: 2}, Cell{Point: 1}},
		{"key", Cell{Point: 1, Key: []match.ValueID{5, 1}}, Cell{Point: 1, Key: []match.ValueID{4, 9}}},
		{"prefix", Cell{Point: 1, Key: []match.ValueID{5, 1}}, Cell{Point: 1, Key: []match.ValueID{5}}},
	} {
		w := NewWriter(io.Discard, 0)
		if err := w.Cell(c.first.Point, c.first.Key, s); err != nil {
			t.Fatal(err)
		}
		if err := w.Cell(c.second.Point, c.second.Key, s); err == nil {
			t.Errorf("%s: out-of-order cell accepted", c.name)
		}
		if err := w.Finish(); err == nil {
			t.Errorf("%s: Finish after a refused cell succeeded", c.name)
		}
	}
	// Equal cells keep their order, as the sorting sink always did.
	w := NewWriter(io.Discard, 0)
	for i := 0; i < 2; i++ {
		if err := w.Cell(3, []match.ValueID{1}, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := w.Cell(4, nil, s); err == nil {
		t.Error("cell accepted after Finish")
	}
	// ...but not across a whole block: the index orders blocks by their
	// first cells strictly, so a cell that fills a block and starts the
	// next would write a file the reader refuses.
	w = NewWriter(io.Discard, 2)
	for i := 0; i < 3; i++ {
		if err := w.Cell(3, []match.ValueID{1}, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err == nil {
		t.Error("a cell repeated across a whole block was written")
	}
}

// randomCells returns n distinct cells in random order.
func randomCells(n int, seed int64) []Cell {
	rng := rand.New(rand.NewSource(seed))
	seen := map[[3]uint32]bool{}
	var cells []Cell
	for len(cells) < n {
		k := [3]uint32{uint32(rng.Intn(40)), uint32(rng.Intn(1000)), uint32(rng.Intn(1000))}
		if seen[k] {
			continue
		}
		seen[k] = true
		var s agg.State
		s.Add(float64(rng.Intn(100)))
		cells = append(cells, Cell{Point: k[0], Key: []match.ValueID{match.ValueID(k[1]), match.ValueID(k[2])}, State: s})
	}
	return cells
}

// TestSinkSpillsUnderBound: a sink whose buffer bound holds a fraction of
// the cells spills sorted runs and merges them into a file byte-identical
// to the unbounded one, leaving no run behind; Sorted streams the same
// cells in file order, repeatably, before Close.
func TestSinkSpillsUnderBound(t *testing.T) {
	cells := randomCells(5*minRunCells, 3)
	dir := t.TempDir()
	write := func(name string, bufferBytes int64) ([]byte, int) {
		path := filepath.Join(dir, name)
		sink := CreateIndexed(path)
		sink.BlockCells = 16
		sink.BufferBytes = bufferBytes
		for _, c := range cells {
			if err := sink.Cell(c.Point, c.Key, c.State); err != nil {
				t.Fatal(err)
			}
		}
		// Sorted repeats: each pass yields every cell in file order, and
		// the file Close then writes is unchanged by the passes.
		for range 2 {
			var n int
			var prev Cell
			err := sink.Sorted(func(c *Cell) error {
				if n > 0 && compareCells(prev.Point, prev.Key, c.Point, c.Key) >= 0 {
					t.Fatalf("%s: cell %d out of file order", name, n)
				}
				prev = cloneCell(*c)
				n++
				return nil
			})
			if err != nil || n != len(cells) {
				t.Fatalf("%s: Sorted passed %d of %d cells (err %v)", name, n, len(cells), err)
			}
		}
		runs := len(sink.runs)
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data, runs
	}
	want, runs := write("all.x3ci", 0)
	if runs != 0 {
		t.Fatalf("unbudgeted sink spilled %d runs", runs)
	}
	bound := int64(minRunCells * (cellBytes + 8))
	got, runs := write("bounded.x3ci", bound)
	if runs < 3 {
		t.Fatalf("a buffer bound of one run's cells spilled %d runs", runs)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("bounded sink wrote a different file")
	}

	// An aborted sink writes nothing and gives everything back too.
	aborted := CreateIndexed(filepath.Join(dir, "aborted.x3ci"))
	aborted.BufferBytes = bound
	for _, c := range cells {
		if err := aborted.Cell(c.Point, c.Key, c.State); err != nil {
			t.Fatal(err)
		}
	}
	if len(aborted.runs) == 0 {
		t.Fatal("the aborted sink never spilled")
	}
	aborted.Abort()
	if _, err := os.Stat(filepath.Join(dir, "aborted.x3ci")); !os.IsNotExist(err) {
		t.Fatalf("aborted sink left a file (stat err %v)", err)
	}
	left, err := filepath.Glob(filepath.Join(dir, "*.run*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("runs left behind: %v", left)
	}
}
