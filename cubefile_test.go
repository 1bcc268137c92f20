package x3

import (
	"path/filepath"
	"testing"

	"x3/internal/cellfile"
)

func TestCubeToFile(t *testing.T) {
	db, q := loadPaper(t)
	want, err := db.Cube(q)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cube.x3cf")
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
	var sum float64
	var n int64
	err = cellfile.Each(path, func(c cellfile.Cell) error {
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

func TestCubeToIndexedFile(t *testing.T) {
	db, q := loadPaper(t)
	want, err := db.Cube(q)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cube.x3ci")
	cells, stats, err := db.CubeToIndexedFile(q, path, WithAlgorithm("BUC"))
	if err != nil {
		t.Fatal(err)
	}
	if cells != want.TotalCells() {
		t.Fatalf("indexed file cells = %d, want %d", cells, want.TotalCells())
	}
	if stats.Algorithm != "BUC" {
		t.Errorf("stats algorithm = %s", stats.Algorithm)
	}
	// The indexed reader serves per-cuboid slices that sum to the whole.
	r, err := cellfile.OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var viaCuboids int64
	for _, pid := range r.Points() {
		if err := r.EachCuboid(pid, func(cellfile.Cell) error { viaCuboids++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if viaCuboids != cells {
		t.Fatalf("cuboid slices yield %d cells, wrote %d", viaCuboids, cells)
	}
	// The version-dispatching Each reads indexed files transparently.
	var viaEach int64
	if err := cellfile.Each(path, func(cellfile.Cell) error { viaEach++; return nil }); err != nil {
		t.Fatal(err)
	}
	if viaEach != cells {
		t.Fatalf("Each read %d cells, wrote %d", viaEach, cells)
	}
}

func TestCubeToIndexedFileBadAlgorithm(t *testing.T) {
	db, q := loadPaper(t)
	if _, _, err := db.CubeToIndexedFile(q, filepath.Join(t.TempDir(), "x"), WithAlgorithm("NOPE")); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
