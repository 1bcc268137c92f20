package cellfile

import (
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"x3/internal/agg"
	"x3/internal/fault"
	"x3/internal/match"
	"x3/internal/obs"
)

// writeSized writes an indexed file at blockCells cells per block whose
// cuboid p holds sizes[p] cells, keyed with 1 + p%3 values each, so blocks
// differ in key length as well as in size.
func writeSized(t *testing.T, blockCells int, sizes []int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sized.x3ci")
	_, err := WriteFile(path, blockCells, nil, func(w *Writer) error {
		for p, n := range sizes {
			key := make([]match.ValueID, 1+p%3)
			for i := 0; i < n; i++ {
				for k := range key {
					key[k] = match.ValueID(i * (k + 1))
				}
				var s agg.State
				s.Add(float64(i%7) - 2.5)
				if err := w.Cell(uint32(p), key, s); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// freshCuboids reads every cuboid of the file at path through a reader
// with no cache, keeping copies of the cells.
func freshCuboids(t *testing.T, path string) map[uint32][]Cell {
	t.Helper()
	r, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	out := make(map[uint32][]Cell)
	for _, p := range r.Points() {
		if err := r.EachCuboidCtx(t.Context(), p, func(c Cell) error {
			out[p] = append(out[p], cloneCell(c))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// sameCells reports whether cells equal want, states bit for bit.
func sameCells(got, want []Cell) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		var a, b [agg.EncodedSize]byte
		got[i].State.Encode(a[:])
		want[i].State.Encode(b[:])
		if got[i].Point != want[i].Point || a != b || !slices.Equal(got[i].Key, want[i].Key) {
			return false
		}
	}
	return true
}

// heapOf is the Go heap a decoded block holds: its cells and their keys.
func heapOf(cells []Cell) int64 {
	h := int64(cap(cells)) * int64(unsafe.Sizeof(Cell{}))
	for _, c := range cells {
		h += int64(len(c.Key)) * int64(unsafe.Sizeof(match.ValueID(0)))
	}
	return h
}

// cacheEntries returns a copy of the cache's entries, most recent first.
func cacheEntries(c *BlockCache) []blockEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []blockEntry
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, *el.Value.(*blockEntry))
	}
	return out
}

// TestCacheChargesDecodedHeap: every cache entry is charged exactly the
// heap of its cells and keys, the cache's byte count is their sum, and
// the gauge reports it.
func TestCacheChargesDecodedHeap(t *testing.T) {
	path := writeSized(t, 16, []int{16, 300, 40, 7, 129})
	r, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	reg := obs.New()
	cache := NewBlockCacheBytes(1 << 20)
	cache.Observe(reg)
	r.SetCache(cache)
	if err := r.Each(func(Cell) error { return nil }); err != nil {
		t.Fatal(err)
	}
	entries := cacheEntries(cache)
	if len(entries) != r.NumBlocks() {
		t.Fatalf("cache holds %d of %d blocks", len(entries), r.NumBlocks())
	}
	var sum int64
	for _, e := range entries {
		if cap(e.cells) != len(e.cells) {
			t.Fatalf("block %d: cached %d cells in a slice of capacity %d", e.key.block, len(e.cells), cap(e.cells))
		}
		if want := heapOf(e.cells); e.cost != want {
			t.Fatalf("block %d charged %d bytes, its cells and keys hold %d", e.key.block, e.cost, want)
		}
		sum += e.cost
	}
	if cache.Bytes() != sum {
		t.Fatalf("cache reports %d bytes, entries sum to %d", cache.Bytes(), sum)
	}
	if g := reg.Snapshot().Gauges["serve.cache.bytes"]; g != sum {
		t.Fatalf("serve.cache.bytes gauge %d, want %d", g, sum)
	}
}

// TestCacheHeapWithinBudget: however reads cycle through cuboids, the
// heap the cache holds never exceeds its budget plus one block.
func TestCacheHeapWithinBudget(t *testing.T) {
	sizes := make([]int, 30)
	for i := range sizes {
		sizes[i] = 20
	}
	path := writeSized(t, 8, sizes)
	r, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const budget = 2000
	cache := NewBlockCacheBytes(budget)
	r.SetCache(cache)
	var maxBlock int64
	for round := 0; round < 2; round++ {
		for _, p := range r.Points() {
			if err := r.EachCuboidCtx(t.Context(), p, func(Cell) error { return nil }); err != nil {
				t.Fatal(err)
			}
			var resident int64
			for _, e := range cacheEntries(cache) {
				resident += heapOf(e.cells)
				maxBlock = max(maxBlock, heapOf(e.cells))
			}
			if resident > budget+maxBlock {
				t.Fatalf("after cuboid %d the cache holds %d bytes of cells, budget %d + one block %d", p, resident, budget, maxBlock)
			}
		}
	}
	if cache.Len() >= r.NumBlocks() {
		t.Fatalf("cache kept all %d blocks under a budget smaller than the file", r.NumBlocks())
	}
}

// TestLargeCuboidBypassesCache: a cuboid whose cells exceed the whole
// budget is looked up in the cache but never inserted, so the cache's
// contents survive it, while a small cuboid is still cached and hit.
func TestLargeCuboidBypassesCache(t *testing.T) {
	path := writeSized(t, 16, []int{16, 1600, 16})
	want := freshCuboids(t, path)
	r, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	reg := obs.New()
	r.Observe(reg)
	cache := NewBlockCacheBytes(4096) // cuboids 0 and 2 fit, cuboid 1 does not
	r.SetCache(cache)
	counts := func() (hits, misses int64) {
		c := reg.Snapshot().Counters
		return c["serve.cache.hits"], c["serve.cache.misses"]
	}
	read := func(p uint32) {
		t.Helper()
		var got []Cell
		if err := r.EachCuboidCtx(t.Context(), p, func(c Cell) error { got = append(got, cloneCell(c)); return nil }); err != nil {
			t.Fatal(err)
		}
		if !sameCells(got, want[p]) {
			t.Fatalf("cuboid %d streamed cells that differ from a fresh decode", p)
		}
	}
	read(0)
	read(2)
	before := make(map[blockKey]blockEntry)
	for _, e := range cacheEntries(cache) {
		before[e.key] = e
	}
	if len(before) == 0 {
		t.Fatal("small cuboids were not cached")
	}
	h0, m0 := counts()
	read(1)
	h1, m1 := counts()
	// Cuboid 1 spans blocks 1-100 plus block 0 (its search starts one
	// block early); blocks 0 and 100 are resident from cuboids 0 and 2.
	if h1-h0 != 2 || m1-m0 != 99 {
		t.Fatalf("large cuboid read: %d hits, %d misses; want 2 and 99 (lookups still count)", h1-h0, m1-m0)
	}
	after := cacheEntries(cache)
	if len(after) != len(before) {
		t.Fatalf("large cuboid read changed the cache from %d to %d blocks", len(before), len(after))
	}
	for _, e := range after {
		b, ok := before[e.key]
		if !ok || b.cost != e.cost || len(b.cells) != len(e.cells) || (len(b.cells) > 0 && &b.cells[0] != &e.cells[0]) {
			t.Fatalf("large cuboid read replaced or added cache entry %+v", e.key)
		}
	}
	read(0)
	h2, m2 := counts()
	if h2-h1 != 1 || m2 != m1 {
		t.Fatalf("small cuboid re-read: %d hits, %d misses; want 1 hit, no miss", h2-h1, m2-m1)
	}
}

// TestBlockReadsAllocateNothingPerBlock: reading a one-block cuboid and a
// hundred-block one allocates the same number of times, uncached, through
// a cache it bypasses, and out of a warm cache.
func TestBlockReadsAllocateNothingPerBlock(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not deterministic under -race")
	}
	path := writeSized(t, 16, []int{16, 1600, 16})
	r, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Observe(obs.New())
	none := func(Cell) error { return nil }
	ctx := t.Context()
	reads := []struct {
		name string
		read func(p uint32) error
	}{
		{"EachCuboidCtx", func(p uint32) error { return r.EachCuboidCtx(t.Context(), p, none) }},
		{"Verified", func(p uint32) error { return drain(ctx, r.Cuboid(p, nil, Verified), none) }},
	}
	modes := []struct {
		name  string
		cache *BlockCache
	}{
		{"uncached", nil},
		{"bypass", NewBlockCacheBytes(1)},
		{"cached", NewBlockCacheBytes(1 << 20)},
	}
	for _, m := range modes {
		r.SetCache(m.cache)
		for _, rd := range reads {
			allocs := func(p uint32) float64 {
				return testing.AllocsPerRun(20, func() {
					if err := rd.read(p); err != nil {
						t.Fatal(err)
					}
				})
			}
			// Both read modes seek to the cuboid: the long read is cuboid
			// 1's 100 blocks.
			short, long := allocs(0), allocs(1)
			t.Logf("%s/%s: %.0f allocations for 1 block, %.0f for 100+", m.name, rd.name, short, long)
			if short != long {
				t.Errorf("%s/%s: %.0f allocations for a 1-block cuboid, %.0f for a 100-block one; want equal", m.name, rd.name, short, long)
			}
		}
	}
}

// TestSharedCacheConcurrentReads: several goroutines read a mix of cached
// and cache-bypassing cuboids through two readers sharing one cache, and
// every cell matches a fresh decode.
func TestSharedCacheConcurrentReads(t *testing.T) {
	sizes := []int{16, 900, 24, 40, 700, 8, 33, 16}
	path := writeSized(t, 16, sizes)
	want := freshCuboids(t, path)
	cache := NewBlockCacheBytes(8 << 10) // the 900- and 700-cell cuboids bypass it
	var readers []*IndexedReader
	for i := 0; i < 2; i++ {
		r, err := OpenIndexed(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		r.SetCache(cache)
		readers = append(readers, r)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 60; i++ {
				r := readers[rng.Intn(len(readers))]
				p := uint32(rng.Intn(len(sizes)))
				var got []Cell
				if err := r.EachCuboidCtx(t.Context(), p, func(c Cell) error { got = append(got, cloneCell(c)); return nil }); err != nil {
					t.Error(err)
					return
				}
				if !sameCells(got, want[p]) {
					t.Errorf("goroutine %d read %d: cuboid %d differs from a fresh decode", g, i, p)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if cache.Len() == 0 {
		t.Fatal("no cuboid was cached")
	}
}

// TestBlockDecoderReusesScratch decodes blocks of different shapes back
// to back through one decoder; each must equal a fresh decode, and a warm
// decoder must not allocate.
func TestBlockDecoderReusesScratch(t *testing.T) {
	var s agg.State
	s.Add(4)
	big := make([]Cell, 64)
	for i := range big {
		big[i] = Cell{Point: uint32(i / 20), Key: []match.ValueID{9, match.ValueID(i), match.ValueID(2 * i)}, State: s}
	}
	small := []Cell{{Point: 3, Key: []match.ValueID{1}, State: s}, {Point: 4, State: s}}
	blocks := [][]Cell{big, small, big, nil, small}
	var d blockDecoder
	for i, cells := range blocks {
		buf := appendColumnarBlock(nil, cells)
		got, err := d.decode(buf, len(cells))
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		fresh, err := decodeColumnarBlock(buf, len(cells))
		if err != nil {
			t.Fatal(err)
		}
		if !sameCells(got, fresh) || !sameCells(got, cells) {
			t.Fatalf("block %d decoded through a used decoder differs from a fresh decode", i)
		}
	}
	buf := appendColumnarBlock(nil, big)
	if raceDetector {
		return
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := d.decode(buf, len(big)); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warm decoder allocated %.0f times per block", n)
	}
}

// TestSinkSpillsPastDefaultBound: a sink left at BufferBytes 0 spills once
// its buffer passes DefaultBufferBytes. The buffer's byte count is set
// directly, standing in for 64 MiB of cells.
func TestSinkSpillsPastDefaultBound(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "default.x3ci")
	sink := CreateIndexed(path)
	cells := randomCells(minRunCells+2, 11)
	add := func(c Cell) {
		t.Helper()
		if err := sink.Cell(c.Point, c.Key, c.State); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cells[:minRunCells] {
		add(c)
	}
	sink.buffered = DefaultBufferBytes - 1
	add(cells[minRunCells])
	if len(sink.runs) != 0 {
		t.Fatalf("sink spilled below DefaultBufferBytes (%d runs)", len(sink.runs))
	}
	add(cells[minRunCells+1])
	if len(sink.runs) != 1 {
		t.Fatalf("sink at the default bound spilled %d runs past DefaultBufferBytes; want 1", len(sink.runs))
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumCells() != int64(len(cells)) {
		t.Fatalf("file holds %d cells, sink took %d", r.NumCells(), len(cells))
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.run*")); len(left) != 0 {
		t.Fatalf("runs left behind: %v", left)
	}
}

// TestSinkSpillFaultLeavesNoRun: a write fault while spilling a run
// surfaces from Cell and leaves no run file behind.
func TestSinkSpillFaultLeavesNoRun(t *testing.T) {
	dir := t.TempDir()
	sink := CreateIndexed(filepath.Join(dir, "doomed.x3ci"))
	sink.BufferBytes = 1
	sink.Fault = fault.NewCrash(1, 0)
	var err error
	for _, c := range randomCells(minRunCells+1, 12) {
		if err = sink.Cell(c.Point, c.Key, c.State); err != nil {
			break
		}
	}
	if !fault.IsInjected(err) {
		t.Fatalf("spill under a write crash returned %v; want an injected error", err)
	}
	sink.Abort()
	left, gerr := filepath.Glob(filepath.Join(dir, "*"))
	if gerr != nil {
		t.Fatal(gerr)
	}
	if len(left) != 0 {
		t.Fatalf("files left behind: %v", left)
	}
}
