package x3

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"x3/internal/cellfile"
	"x3/internal/dataset"
	"x3/internal/lattice"
)

func TestCubeToFile(t *testing.T) {
	db, q := loadPaper(t)
	want, err := db.Cube(q)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cube.x3ci")
	cells, stats, err := db.CubeToFile(q, path, WithAlgorithm("BUC"))
	if err != nil {
		t.Fatal(err)
	}
	if cells != want.TotalCells() {
		t.Fatalf("file cells = %d, want %d", cells, want.TotalCells())
	}
	if stats.Algorithm != "BUC" {
		t.Errorf("stats algorithm = %s", stats.Algorithm)
	}
	// The file's contents aggregate to the same totals.
	r, err := cellfile.OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var sum float64
	var n int64
	err = r.Each(func(c cellfile.Cell) error {
		n++
		sum += c.State.Sum
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != cells {
		t.Fatalf("read back %d cells, wrote %d", n, cells)
	}
	if sum <= 0 {
		t.Fatalf("aggregate sum = %v", sum)
	}
}

// TestCubeToIndexedFile checks that the file CubeToFile writes is
// indexed: one slice per lattice point, and the slices sum to the whole.
func TestCubeToIndexedFile(t *testing.T) {
	db, q := loadPaper(t)
	path := filepath.Join(t.TempDir(), "cube.x3ci")
	cells, _, err := db.CubeToFile(q, path, WithAlgorithm("BUC"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := cellfile.OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, want := len(r.Points()), q.lat.Size(); got != want {
		t.Fatalf("index lists %d cuboids, lattice has %d", got, want)
	}
	var viaCuboids int64
	for _, pid := range r.Points() {
		if err := r.EachCuboidCtx(t.Context(), pid, func(cellfile.Cell) error { viaCuboids++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if viaCuboids != cells {
		t.Fatalf("cuboid slices yield %d cells, wrote %d", viaCuboids, cells)
	}
}

// TestCubeToFileUnderBudget writes a cube whose cells outgrow the memory
// budget: they spill in sorted runs, and the file is byte-identical to
// the one written without a budget.
func TestCubeToFileUnderBudget(t *testing.T) {
	spec := dataset.DBLPQuery()
	lat, err := lattice.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	db := &Database{doc: dataset.DBLP(dataset.DefaultDBLPConfig(1500, 7))}
	q := &Query{spec: spec, lat: lat}
	dir := t.TempDir()
	write := func(name string, opts ...Option) []byte {
		path := filepath.Join(dir, name)
		if _, _, err := db.CubeToFile(q, path, opts...); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	want := write("all.x3ci")
	r, err := cellfile.OpenIndexed(filepath.Join(dir, "all.x3ci"))
	if err != nil {
		t.Fatal(err)
	}
	cells := r.NumCells()
	r.Close()
	const budget = 1 << 18
	if cells*64 < 4*budget {
		t.Fatalf("cube of %d cells fits the %d-byte budget; the test needs a bigger one", cells, budget)
	}
	if got := write("budget.x3ci", WithMemoryBudget(budget)); !bytes.Equal(got, want) {
		t.Fatal("the budgeted cube file differs from the unbudgeted one")
	}
}

func TestCubeToFileBadAlgorithm(t *testing.T) {
	db, q := loadPaper(t)
	if _, _, err := db.CubeToFile(q, filepath.Join(t.TempDir(), "x"), WithAlgorithm("NOPE")); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestCubeToFileBadPath(t *testing.T) {
	db, q := loadPaper(t)
	if _, _, err := db.CubeToFile(q, "/nonexistent-dir/x.x3cf"); err == nil {
		t.Error("unwritable path accepted")
	}
}
