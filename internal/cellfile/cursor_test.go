package cellfile

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"x3/internal/match"
	"x3/internal/obs"
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
			perCuboid = append(perCuboid, collect(t, r.Cuboid(p, nil, mode))...)
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
		"absent cuboid": r.Cuboid(99999, nil, Verified),
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

// filterPrefix returns the cells of cuboid point whose keys start with
// prefix, in order.
func filterPrefix(cells []Cell, point uint32, prefix []match.ValueID) []Cell {
	var out []Cell
	for _, c := range cells {
		if c.Point == point && len(c.Key) >= len(prefix) && slices.Equal(c.Key[:len(prefix)], prefix) {
			out = append(out, c)
		}
	}
	return out
}

// prefixesOf returns every distinct non-empty prefix of the keys of
// cuboid point's cells, plus prefixes that may match no cell: each key
// extended by one value, each key's first value moved far past every
// value, and the smallest and largest one-value prefixes.
func prefixesOf(cells []Cell, point uint32) [][]match.ValueID {
	var out [][]match.ValueID
	seen := map[string]bool{}
	add := func(p []match.ValueID) {
		if k := fmt.Sprint(p); !seen[k] {
			seen[k] = true
			out = append(out, slices.Clone(p))
		}
	}
	for _, c := range cells {
		if c.Point != point {
			continue
		}
		for n := 1; n <= len(c.Key); n++ {
			add(c.Key[:n])
		}
		if len(c.Key) > 0 {
			add(append(slices.Clone(c.Key), 0))
			add([]match.ValueID{c.Key[0] + 1<<20})
		}
	}
	add([]match.ValueID{0})
	add([]match.ValueID{1<<32 - 1})
	return out
}

// TestCuboidPrefixSeeks pins the prefix read to a filtered whole-cuboid
// read: for every cuboid, every prefix its keys hold and prefixes no key
// holds, in both read modes, across 3-cell blocks so runs of matching
// cells straddle block boundaries. A prefix read touches only the blocks
// its run spans, plus at most the block before it and the one after.
func TestCuboidPrefixSeeks(t *testing.T) {
	const blockCells = 3
	path, _ := buildIndexed(t, blockCells, 300, 9)
	r, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	reg := obs.New()
	r.Observe(reg)
	r.SetCache(NewBlockCacheBytes(1 << 20))
	all := collect(t, r.All(Verified))
	scanned := reg.Counter("serve.scan.cells")
	reads := 0
	for _, mode := range []ReadMode{Indexed, Verified} {
		for _, p := range r.Points() {
			for _, prefix := range prefixesOf(all, p) {
				want := filterPrefix(all, p, prefix)
				before := scanned.Value()
				got := collect(t, r.Cuboid(p, prefix, mode))
				if !sameCells(got, want) {
					t.Fatalf("mode %d, cuboid %d, prefix %v: %d cells, want %d", mode, p, prefix, len(got), len(want))
				}
				blocks := (scanned.Value() - before + blockCells - 1) / blockCells
				if span := int64(len(want)+blockCells-1)/blockCells + 2; blocks > span {
					t.Fatalf("mode %d, cuboid %d, prefix %v: %d matching cells read %d blocks", mode, p, prefix, len(want), blocks)
				}
				reads++
			}
		}
	}
	if n := r.NumBlocks(); n < 20 {
		t.Fatalf("only %d blocks: too few to seek in", n)
	}
	t.Logf("%d prefix reads over %d blocks", reads, r.NumBlocks())
}
