package cellfile

import (
	"path/filepath"
	"testing"
)

// collect drains a cursor, cloning every cell.
func collect(t *testing.T, c *Cursor) []Cell {
	t.Helper()
	var out []Cell
	for {
		cell, err := c.Next(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		if cell == nil {
			return out
		}
		out = append(out, cloneCell(*cell))
	}
}

// TestIteratorMatchesEach pins the pull cursor to the callback walk: the
// whole-file cursor and the per-cuboid cursors, in both read modes, yield
// Each's cells in Each's (point, key) order, across small blocks that
// force many block-boundary crossings. Exhausted cursors stay exhausted.
func TestIteratorMatchesEach(t *testing.T) {
	path, _ := buildIndexed(t, 5, 300, 9)
	r, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetCache(NewBlockCacheBytes(1 << 20))

	var want []Cell
	if err := r.Each(func(c Cell) error {
		want = append(want, cloneCell(c))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ReadMode{Indexed, Verified} {
		all := r.All(mode)
		if !sameCells(collect(t, all), want) {
			t.Fatalf("mode %d: the whole-file cursor differs from Each", mode)
		}
		if c, err := all.Next(t.Context()); c != nil || err != nil {
			t.Fatalf("Next after end = (%v, %v)", c, err)
		}
		var perCuboid []Cell
		for _, p := range r.Points() {
			perCuboid = append(perCuboid, collect(t, r.Cuboid(p, mode))...)
		}
		if !sameCells(perCuboid, want) {
			t.Fatalf("mode %d: the cuboid cursors differ from Each", mode)
		}
	}
}

// TestIteratorEmptyFile: cursors over an empty file, over a cuboid the
// file does not hold, and a closed cursor all yield nothing, however
// often they are asked.
func TestIteratorEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.x3ci")
	if err := WriteIndexed(path, nil); err != nil {
		t.Fatal(err)
	}
	empty, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	full, _ := buildIndexed(t, 5, 300, 9)
	r, err := OpenIndexed(full)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	closed := r.All(Indexed)
	closed.Close()
	for name, c := range map[string]*Cursor{
		"empty file":    empty.All(Indexed),
		"absent cuboid": r.Cuboid(99999, Verified),
		"closed cursor": closed,
	} {
		for range 3 {
			if cell, err := c.Next(t.Context()); cell != nil || err != nil {
				t.Fatalf("%s: Next = (%v, %v)", name, cell, err)
			}
		}
		c.Close()
	}
}
