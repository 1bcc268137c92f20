package cellfile

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"x3/internal/agg"
	"x3/internal/cube"
	"x3/internal/match"
	"x3/internal/obs"
)

// buildIndexed computes a cube straight into an indexed sink and returns
// the file path plus the oracle result for cross-checking.
func buildIndexed(t *testing.T, blockCells, facts int, seed int64) (string, *cube.Result) {
	t.Helper()
	lat := makeLattice(t)
	set := makeSet(t, lat, facts, seed)
	path := filepath.Join(t.TempDir(), "cube.x3ci")
	sink := CreateIndexed(path)
	sink.BlockCells = blockCells
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
	return path, want
}

func TestIndexedRoundTrip(t *testing.T) {
	path, want := buildIndexed(t, 7, 200, 1)
	r, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumCells() != want.Cells {
		t.Fatalf("reader reports %d cells, oracle has %d", r.NumCells(), want.Cells)
	}
	var read int64
	var lastPoint uint32
	var lastKey []match.ValueID
	err = r.Each(func(c Cell) error {
		read++
		p := want.Lattice.FromID(c.Point)
		s, ok := want.State(p, c.Key)
		if !ok {
			t.Fatalf("cell %v/%v not in oracle", p, c.Key)
		}
		if s != c.State {
			t.Fatalf("cell %v/%v state %+v, want %+v", p, c.Key, c.State, s)
		}
		if read > 1 && c.Point < lastPoint {
			t.Fatalf("points out of order: %d after %d", c.Point, lastPoint)
		}
		if read > 1 && c.Point == lastPoint {
			for i := range c.Key {
				if c.Key[i] != lastKey[i] {
					if c.Key[i] < lastKey[i] {
						t.Fatalf("keys out of order in point %d: %v after %v", c.Point, c.Key, lastKey)
					}
					break
				}
			}
		}
		lastPoint, lastKey = c.Point, append(lastKey[:0], c.Key...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if read != want.Cells {
		t.Fatalf("read %d cells, oracle has %d", read, want.Cells)
	}
}

func TestEachCuboidBoundedAndComplete(t *testing.T) {
	path, want := buildIndexed(t, 7, 300, 2)
	r, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	reg := obs.New()
	r.Observe(reg)
	if r.NumBlocks() < 4 {
		t.Fatalf("want several blocks, got %d", r.NumBlocks())
	}
	lat := want.Lattice
	for _, p := range lat.Points() {
		pid := lat.ID(p)
		dirCells, ok := r.CuboidCells(pid)
		if int(dirCells) != want.CuboidSize(p) {
			t.Fatalf("directory says cuboid %s has %d cells, oracle %d", lat.Label(p), dirCells, want.CuboidSize(p))
		}
		if !ok && want.CuboidSize(p) > 0 {
			t.Fatalf("cuboid %s missing from directory", lat.Label(p))
		}
		before := reg.Counter("serve.scan.cells").Value()
		var got int64
		err := r.EachCuboidCtx(t.Context(), pid, func(c Cell) error {
			if c.Point != pid {
				t.Fatalf("cuboid %d stream leaked cell of %d", pid, c.Point)
			}
			got++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != dirCells {
			t.Fatalf("cuboid %s streamed %d cells, directory says %d", lat.Label(p), got, dirCells)
		}
		scanned := reg.Counter("serve.scan.cells").Value() - before
		// Bounded: the scan may touch one leading block plus the cuboid's
		// own blocks, never the whole file (cuboids here are much smaller
		// than the file).
		if limit := dirCells + 2*7; scanned > limit && scanned >= r.NumCells() {
			t.Fatalf("cuboid %s scanned %d cells (cuboid %d, total %d)", lat.Label(p), scanned, dirCells, r.NumCells())
		}
	}
	// An unmaterialized point streams nothing and reads nothing.
	before := reg.Counter("serve.scan.cells").Value()
	if err := r.EachCuboidCtx(t.Context(), 99999, func(Cell) error { t.Fatal("phantom cell"); return nil }); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("serve.scan.cells").Value() != before {
		t.Error("missing cuboid still scanned blocks")
	}
}

func TestIndexedReaderCacheSharing(t *testing.T) {
	path, _ := buildIndexed(t, 7, 200, 3)
	reg := obs.New()
	cache := NewBlockCacheBytes(4 * DefaultBlockBytes)
	r, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Observe(reg)
	r.SetCache(cache)
	if err := r.Each(func(Cell) error { return nil }); err != nil {
		t.Fatal(err)
	}
	misses := reg.Counter("serve.cache.misses").Value()
	if misses != int64(r.NumBlocks()) {
		t.Fatalf("first pass missed %d times, want %d", misses, r.NumBlocks())
	}
	if cache.Bytes() > cache.Budget() {
		t.Fatalf("cache holds %d bytes, budget %d", cache.Bytes(), cache.Budget())
	}
	// The sequential pass left the tail blocks resident; re-reading the
	// last cuboid hits them (a full re-scan would thrash the tiny LRU).
	pts := r.Points()
	if err := r.EachCuboidCtx(t.Context(), pts[len(pts)-1], func(Cell) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("serve.cache.hits").Value() == 0 {
		t.Error("no hits re-reading the resident tail blocks")
	}
	// A second reader over the same file must not see the first one's
	// entries as its own (distinct generation).
	r2, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	r2.Observe(reg)
	r2.SetCache(cache)
	hitsBefore := reg.Counter("serve.cache.hits").Value()
	if err := r2.Each(func(Cell) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("serve.cache.hits").Value() != hitsBefore {
		t.Error("second reader hit the first reader's cache entries")
	}
}

func TestIndexedCorruptionRejected(t *testing.T) {
	path, _ := buildIndexed(t, 7, 120, 4)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := map[string][]byte{
		"truncated-footer": data[:len(data)-3],
		"truncated-half":   data[:len(data)/2],
		"no-header":        data[2:],
		"empty":            {},
	}
	// Flip one byte inside the index section (footer's index offset is at
	// len-12..len-4; index starts well before that).
	corrupt := append([]byte{}, data...)
	corrupt[len(corrupt)-footerLenCRC-2] ^= 0xFF
	cases["corrupt-index"] = corrupt
	// Lie about the footer cell count.
	lied := append([]byte{}, data...)
	lied[7] ^= 0x01 // byte 3 of the big-endian count at offset len-20... see below
	for name, b := range cases {
		p := write(name+".x3ci", b)
		if r, err := OpenIndexed(p); err == nil {
			r.Close()
			t.Errorf("%s: opened without error", name)
		}
	}
	// Footer count mismatch, explicitly.
	mis := append([]byte{}, data...)
	mis[len(mis)-footerLenCRC+7] ^= 0x01
	p := write("footer-count.x3ci", mis)
	if r, err := OpenIndexed(p); err == nil {
		r.Close()
		t.Error("footer count mismatch opened without error")
	}
	_ = lied
}

func TestWriteIndexedSortsArbitraryOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var cells []Cell
	for i := 0; i < 500; i++ {
		var s agg.State
		s.Add(float64(i))
		cells = append(cells, Cell{
			Point: uint32(rng.Intn(9)),
			Key:   []match.ValueID{match.ValueID(rng.Intn(50)), match.ValueID(rng.Intn(50))},
			State: s,
		})
	}
	path := filepath.Join(t.TempDir(), "shuffled.x3ci")
	if err := WriteIndexed(path, cells); err != nil {
		t.Fatal(err)
	}
	r, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var n int64
	var last Cell
	err = r.Each(func(c Cell) error {
		if n > 0 {
			if c.Point < last.Point {
				t.Fatal("points unsorted")
			}
			if c.Point == last.Point && (c.Key[0] < last.Key[0] ||
				(c.Key[0] == last.Key[0] && c.Key[1] < last.Key[1])) {
				t.Fatal("keys unsorted")
			}
		}
		last = cloneCell(c)
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Fatalf("read %d cells, wrote 500", n)
	}
}

func TestIndexedEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.x3ci")
	if err := WriteIndexed(path, nil); err != nil {
		t.Fatal(err)
	}
	r, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumCells() != 0 || r.NumBlocks() != 0 || len(r.Points()) != 0 {
		t.Fatalf("empty store reports cells=%d blocks=%d points=%d", r.NumCells(), r.NumBlocks(), len(r.Points()))
	}
	if err := r.Each(func(Cell) error { t.Fatal("cell in empty file"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestSinkAccessors(t *testing.T) {
	dir := t.TempDir()
	var s agg.State
	s.Add(1)
	sink := CreateIndexed(filepath.Join(dir, "b.x3ci"))
	if err := sink.Cell(0, []match.ValueID{1}, s); err != nil {
		t.Fatal(err)
	}
	if sink.Cells() != 1 {
		t.Fatalf("sink reports %d cells", sink.Cells())
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenIndexed(filepath.Join(dir, "b.x3ci"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Path() != filepath.Join(dir, "b.x3ci") {
		t.Fatalf("reader path = %q", r.Path())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Unwritable paths surface on Close, not silently.
	bad := CreateIndexed(filepath.Join(dir, "no-dir", "x.x3ci"))
	if err := bad.Close(); err == nil {
		t.Error("Close into a missing directory succeeded")
	}
	if NewBlockCacheBytes(0).Budget() != 1 {
		t.Error("zero-byte cache budget not clamped")
	}
}
