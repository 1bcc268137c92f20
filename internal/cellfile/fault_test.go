package cellfile

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"x3/internal/agg"
	"x3/internal/fault"
	"x3/internal/match"
	"x3/internal/obs"
)

// writeSmallIndexed writes a deterministic multi-block indexed file and
// returns its path plus the cells written (sorted the way the file is).
func writeSmallIndexed(t *testing.T, inj *fault.Injector) (string, []Cell) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "small.x3ci")
	sink := CreateIndexed(path)
	sink.BlockCells = 8
	sink.Fault = inj
	var s agg.State
	s.Add(2.5)
	var cells []Cell
	for p := uint32(0); p < 5; p++ {
		for k := 0; k < 20; k++ {
			key := []match.ValueID{match.ValueID(k), match.ValueID(p)}
			if err := sink.Cell(p, key, s); err != nil {
				t.Fatal(err)
			}
			cells = append(cells, Cell{Point: p, Key: key, State: s})
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return path, cells
}

func TestDefaultWriterEmitsV5(t *testing.T) {
	path, _ := writeSmallIndexed(t, nil)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data[4] != 5 {
		t.Fatalf("default writer produced version %d, want 5", data[4])
	}
}

// TestOldIndexedVersionsRejected: the v1 stream, the row-wise v2 and v3
// indexed formats and v4, whose index held no first keys, have no writer
// any more, and a header that claims one of them is refused as corrupt
// rather than mis-decoded.
func TestOldIndexedVersionsRejected(t *testing.T) {
	path, _ := writeSmallIndexed(t, nil)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, ver := range []byte{1, 2, 3, 4} {
		data[4] = ver
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := OpenIndexed(path); !errors.Is(err, ErrCorrupt) {
			if err == nil {
				r.Close()
			}
			t.Fatalf("OpenIndexed of a version-%d header returned %v; want wrapped ErrCorrupt", ver, err)
		}
	}
}

// rewriteIndex returns data, an indexed file r was opened on, with its
// index rewritten from r's entries after mutate changed them, and the
// index checksum re-sealed: a file whose index lies consistently.
func rewriteIndex(data []byte, r *IndexedReader, mutate func([]blockMeta)) []byte {
	blocks := slices.Clone(r.blocks)
	for i := range blocks {
		blocks[i].firstKey = slices.Clone(blocks[i].firstKey)
	}
	mutate(blocks)
	foot := slices.Clone(data[len(data)-footerLenCRC:])
	indexOff := binary.BigEndian.Uint64(foot[8:])
	idx := appendIndex(nil, blocks, r.points, r.pointCells)
	binary.BigEndian.PutUint32(foot[16:], crc32.Checksum(idx, castagnoli))
	out := append(slices.Clone(data[:indexOff]), idx...)
	return append(out, foot...)
}

// TestCorruptIndexFirstKeyRefused rewrites one block's indexed first
// cell at a time — to a later cell of the same block, to the previous
// block's last cell, to its own key with the last value bumped or cut
// off — and re-seals the index checksum. Open refuses every lie that
// breaks the entries' order; every other lie is refused by the reads of
// its block. No prefix read of any cuboid, whatever blocks it reads, may
// come back with cells missing: it returns the truth or fails with
// ErrCorrupt.
func TestCorruptIndexFirstKeyRefused(t *testing.T) {
	path, _ := buildIndexed(t, 3, 300, 9)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	all := collect(t, r.All(Verified))
	lied := filepath.Join(t.TempDir(), "lied.x3ci")
	var refusedOpen, refusedReads, exactReads int
	at := 0 // index into all of block bi's first cell
	for bi := range r.blocks {
		b := r.blocks[bi]
		first := all[at]
		var lies []Cell
		if b.cells > 1 {
			lies = append(lies, all[at+1])
		}
		if at > 0 {
			lies = append(lies, all[at-1])
		}
		if n := len(first.Key); n > 0 {
			bumped := slices.Clone(first.Key)
			bumped[n-1]++
			lies = append(lies, Cell{Point: first.Point, Key: bumped}, Cell{Point: first.Point, Key: first.Key[:n-1]})
		}
		at += b.cells
		for _, lie := range lies {
			bad := rewriteIndex(data, r, func(blocks []blockMeta) {
				blocks[bi].firstPoint, blocks[bi].firstKey = lie.Point, lie.Key
			})
			if err := os.WriteFile(lied, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			lr, err := OpenIndexed(lied)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("block %d first cell %d%v: open failed without ErrCorrupt: %v", bi, lie.Point, lie.Key, err)
				}
				refusedOpen++
				continue
			}
			if err := drain(nil, lr.All(Verified), func(Cell) error { return nil }); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("block %d first cell %d%v: a whole-file read returned %v; want ErrCorrupt", bi, lie.Point, lie.Key, err)
			}
			for _, p := range lr.Points() {
				for _, prefix := range append(prefixesOf(all, p), nil) {
					var got []Cell
					err := drain(nil, lr.Cuboid(p, prefix, Verified), func(c Cell) error {
						got = append(got, cloneCell(c))
						return nil
					})
					switch {
					case errors.Is(err, ErrCorrupt):
						refusedReads++
					case err != nil:
						t.Fatalf("block %d lie, cuboid %d prefix %v: %v", bi, p, prefix, err)
					case !sameCells(got, filterPrefix(all, p, prefix)):
						t.Fatalf("block %d first cell %d%v: cuboid %d prefix %v read %d cells, the file holds %d",
							bi, lie.Point, lie.Key, p, prefix, len(got), len(filterPrefix(all, p, prefix)))
					default:
						exactReads++
					}
				}
			}
			lr.Close()
		}
	}
	if refusedOpen == 0 || refusedReads == 0 {
		t.Fatalf("%d lies refused at open, %d reads refused: the sweep does not reach both checks", refusedOpen, refusedReads)
	}
	t.Logf("%d lies refused at open; over the rest, %d reads refused and %d exact", refusedOpen, refusedReads, exactReads)
}

// TestChecksumCatchesBitFlip flips a single data bit of a file on disk
// and asserts the read fails with ErrCorrupt instead of serving a wrong
// cell.
func TestChecksumCatchesBitFlip(t *testing.T) {
	path, _ := writeSmallIndexed(t, nil)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerLen+6] ^= 0x04
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err) // index is intact; only a data block is damaged
	}
	defer r.Close()
	err = r.Each(func(Cell) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reading a bit-flipped block returned %v; want wrapped ErrCorrupt", err)
	}
}

// TestRetryHealsTransientFaults runs a heavy injected-error schedule with
// a retry budget: every read must eventually succeed (a retry is a fresh
// op index, so transient faults pass on re-roll) and the retry counter
// must show it happened.
func TestRetryHealsTransientFaults(t *testing.T) {
	path, cells := writeSmallIndexed(t, nil)
	inj := fault.New(fault.Config{Seed: 11, ErrEvery: 3, CorruptEvery: 4, ShortEvery: 5})
	reg := obs.New()
	inj.Observe(reg)
	r, err := OpenIndexedWith(path, ReadOptions{
		Fault:        inj,
		Retries:      20, // ample: P(20 consecutive 1-in-3 faults) ~ 3e-10
		RetryBackoff: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Observe(reg)
	var n int
	if err := r.Each(func(Cell) error { n++; return nil }); err != nil {
		t.Fatalf("read under transient faults failed despite retries: %v", err)
	}
	if n != len(cells) {
		t.Fatalf("read %d cells under faults, wrote %d", n, len(cells))
	}
	if reg.Counter("cellfile.read.retries").Value() == 0 {
		t.Fatal("no retries counted under a 1-in-3 error schedule")
	}
	if reg.Counter("fault.injected.errors").Value() == 0 {
		t.Fatal("injector reports no injected errors")
	}
}

// TestInjectedCorruptionDetectedNotServed disables retries so an injected
// bit flip has nowhere to hide: the CRC must reject it.
func TestInjectedCorruptionDetectedNotServed(t *testing.T) {
	path, _ := writeSmallIndexed(t, nil)
	inj := fault.New(fault.Config{Seed: 7, CorruptEvery: 1})
	r, err := OpenIndexedWith(path, ReadOptions{Fault: inj, Retries: -1})
	if err == nil {
		defer r.Close()
		err = r.Each(func(Cell) error { return nil })
	}
	if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
		t.Fatalf("corrupt-every-read open/scan returned %v; want ErrCorrupt or ErrTruncated", err)
	}
}

func TestTruncatedSurfacesSentinel(t *testing.T) {
	path, _ := writeSmallIndexed(t, nil)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 3, headerLen, len(data) / 2, len(data) - 5} {
		p := filepath.Join(t.TempDir(), "trunc.x3ci")
		if err := os.WriteFile(p, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenIndexed(p)
		if err == nil {
			r.Close()
			t.Fatalf("truncation to %d bytes opened cleanly", n)
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: %v; want ErrTruncated/ErrCorrupt", n, err)
		}
	}
}

func TestEachCuboidCtxCancellation(t *testing.T) {
	path, _ := writeSmallIndexed(t, nil)
	r, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = r.EachCuboidCtx(ctx, 0, func(Cell) error { return nil })
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled EachCuboidCtx returned %v; want wrapped ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled EachCuboidCtx returned %v; want it to also wrap context.Canceled", err)
	}
	// A verified read honours the same contract.
	err = drain(ctx, r.Cuboid(0, nil, Verified), func(Cell) error { return nil })
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled verified read returned %v; want wrapped ErrCancelled", err)
	}
}

// TestScanCuboidMatchesIndexedPath asserts the degraded re-read (a
// Verified cursor) returns exactly the cells the fast path returns, for
// every cuboid. The yielded cells are borrowed, so the kept ones clone
// their keys.
func TestScanCuboidMatchesIndexedPath(t *testing.T) {
	path, _ := writeSmallIndexed(t, nil)
	r, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	for _, p := range r.Points() {
		var fast, slow []Cell
		if err := r.EachCuboidCtx(t.Context(), p, func(c Cell) error { fast = append(fast, cloneCell(c)); return nil }); err != nil {
			t.Fatal(err)
		}
		if err := drain(ctx, r.Cuboid(p, nil, Verified), func(c Cell) error { slow = append(slow, cloneCell(c)); return nil }); err != nil {
			t.Fatal(err)
		}
		if len(fast) != len(slow) {
			t.Fatalf("cuboid %d: fast path %d cells, scan %d", p, len(fast), len(slow))
		}
		for i := range fast {
			if fast[i].Point != slow[i].Point || fast[i].State != slow[i].State {
				t.Fatalf("cuboid %d cell %d differs between fast path and scan", p, i)
			}
			for k := range fast[i].Key {
				if fast[i].Key[k] != slow[i].Key[k] {
					t.Fatalf("cuboid %d cell %d key differs between fast path and scan", p, i)
				}
			}
		}
	}
	// Unmaterialized cuboids stream nothing from the scan path too.
	if err := drain(ctx, r.Cuboid(99999, nil, Verified), func(Cell) error {
		t.Fatal("phantom cell from scan")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestScanCuboidBypassesCache poisons the block cache with wrong cells and
// asserts a Verified cursor ignores it (fresh reads are the point of the
// rung).
func TestScanCuboidBypassesCache(t *testing.T) {
	path, _ := writeSmallIndexed(t, nil)
	r, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cache := NewBlockCacheBytes(64 * DefaultBlockBytes)
	r.SetCache(cache)
	// Poison every block's cache slot with an empty slice.
	for bi := 0; bi < r.NumBlocks(); bi++ {
		cache.put(r.gen, bi, nil, 1)
	}
	var viaCache, viaScan int
	if err := r.EachCuboidCtx(t.Context(), 0, func(Cell) error { viaCache++; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := drain(context.Background(), r.Cuboid(0, nil, Verified), func(Cell) error { viaScan++; return nil }); err != nil {
		t.Fatal(err)
	}
	if viaCache != 0 {
		t.Fatalf("poisoned cache path streamed %d cells; expected the poison to stick (%d)", viaCache, 0)
	}
	if viaScan == 0 {
		t.Fatal("the verified read returned nothing; it must bypass the poisoned cache")
	}
}

// TestSinkCleansUpOnWriteFault: an injected write failure must surface
// from Close and must not leave a half-written file behind.
func TestSinkCleansUpOnWriteFault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doomed.x3ci")
	sink := CreateIndexed(path)
	sink.BlockCells = 4
	// Crash at op 0: the sink buffers through bufio, so the whole small
	// file reaches the injected writer as its first underlying write.
	sink.Fault = fault.NewCrash(1, 0)
	var s agg.State
	s.Add(1)
	for p := uint32(0); p < 4; p++ {
		for k := 0; k < 16; k++ {
			if err := sink.Cell(p, []match.ValueID{match.ValueID(k)}, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	err := sink.Close()
	if !fault.IsInjected(err) {
		t.Fatalf("Close under a write crash returned %v; want an injected error", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("half-written file left behind (stat err %v)", err)
	}
}
