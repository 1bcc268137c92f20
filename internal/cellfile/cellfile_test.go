package cellfile

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
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

// TestRoundTripThroughAlgorithm computes a cube straight into a cell file
// and compares the read-back contents with an in-memory Result.
func TestRoundTripThroughAlgorithm(t *testing.T) {
	lat := makeLattice(t)
	set := makeSet(t, lat, 200, 1)
	path := filepath.Join(t.TempDir(), "cube.x3cf")
	sink, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	in := &cube.Input{Lattice: lat, Source: set, Dicts: set.Dicts}
	if _, err := (cube.Counter{}).Run(in, sink); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	want, err := cube.RunOracle(lat, set, set.Dicts)
	if err != nil {
		t.Fatal(err)
	}
	read := int64(0)
	err = Each(path, func(c Cell) error {
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

// TestTruncationDetected cuts a valid v1 file at every byte offset: each
// prefix must be refused, and refused with a sentinel — never a bare
// io.EOF from whichever field the cut happened to land in.
func TestTruncationDetected(t *testing.T) {
	lat := makeLattice(t)
	set := makeSet(t, lat, 50, 2)
	dir := t.TempDir()
	path := filepath.Join(dir, "cube.x3cf")
	sink, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	in := &cube.Input{Lattice: lat, Source: set, Dicts: set.Dicts}
	if _, err := (cube.Counter{}).Run(in, sink); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.x3cf")
	for n := 0; n < len(data); n++ {
		if err := os.WriteFile(cut, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		err := Each(cut, func(Cell) error { return nil })
		if err == nil {
			t.Fatalf("cell file truncated to %d of %d bytes read without error", n, len(data))
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d of %d bytes: %v; want ErrTruncated/ErrCorrupt", n, len(data), err)
		}
	}
}

// TestTrailerCountMismatchRejected is the regression test for the v1
// trailer hole: a file whose trailer is not the last thing in it — e.g. a
// forged or misplaced trailer whose count matches only the cells before
// it — used to read back "successfully" while silently dropping every
// cell after the trailer.
func TestTrailerCountMismatchRejected(t *testing.T) {
	lat := makeLattice(t)
	set := makeSet(t, lat, 50, 9)
	dir := t.TempDir()
	path := filepath.Join(dir, "cube.x3cf")
	sink, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	in := &cube.Input{Lattice: lat, Source: set, Dicts: set.Dicts}
	if _, err := (cube.Counter{}).Run(in, sink); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A trailer whose count simply disagrees with the cells stored.
	bumped := append([]byte{}, data...)
	bumped[len(bumped)-1]++
	miscounted := filepath.Join(dir, "miscounted.x3cf")
	if err := os.WriteFile(miscounted, bumped, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Each(miscounted, func(Cell) error { return nil }); err == nil {
		t.Error("trailer count mismatch read without error")
	}

	// An early trailer: take a valid file and append a full extra copy of
	// its cell section after the trailer. The trailer count agrees with
	// the cells read up to it but not with the cells actually stored.
	early := append([]byte{}, data...)
	early = append(early, data[5:]...)
	earlyPath := filepath.Join(dir, "early.x3cf")
	if err := os.WriteFile(earlyPath, early, 0o644); err != nil {
		t.Fatal(err)
	}
	var read int
	err = Each(earlyPath, func(Cell) error { read++; return nil })
	if err == nil {
		t.Errorf("early trailer read without error (%d cells silently dropped)", read)
	}
}

func TestLargePointIDsSurvive(t *testing.T) {
	// Point IDs whose uvarint encoding starts with a continuation byte
	// must not be confused with markers.
	path := filepath.Join(t.TempDir(), "big.x3cf")
	sink, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var s agg.State
	s.Add(1)
	pts := []uint32{0, 1, 127, 128, 255, 1 << 20}
	for _, p := range pts {
		if err := sink.Cell(p, []match.ValueID{match.ValueID(p)}, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	i := 0
	err = Each(path, func(c Cell) error {
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
	if err := Each(filepath.Join(dir, "missing"), nil); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Each(bad, nil); err == nil {
		t.Error("bad magic accepted")
	}
	garbled := filepath.Join(dir, "garbled")
	if err := os.WriteFile(garbled, []byte{'X', '3', 'C', 'F', 1, 0x7E}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Each(garbled, func(Cell) error { return nil }); err == nil {
		t.Error("corrupt marker accepted")
	}
}

func TestEmptyCube(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.x3cf")
	sink, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := Each(path, func(Cell) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("cells = %d", n)
	}
}
