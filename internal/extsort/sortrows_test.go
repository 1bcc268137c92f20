package extsort

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// referenceSort sorts a copy of buf's rows with the standard library's
// comparison sort, the oracle sortRows must match byte for byte.
func referenceSort(buf []byte, width int) []byte {
	rows := make([][]byte, 0, len(buf)/width)
	for i := 0; i+width <= len(buf); i += width {
		rows = append(rows, buf[i:i+width])
	}
	slices.SortFunc(rows, bytes.Compare)
	return bytes.Join(rows, nil)
}

// checkSortRows sorts a copy of buf and compares it with the reference.
func checkSortRows(t *testing.T, name string, buf []byte, width int) {
	t.Helper()
	want := referenceSort(buf, width)
	got := slices.Clone(buf)
	sortRows(got, width)
	if !bytes.Equal(got, want) {
		for i := 0; i < len(got); i += width {
			if !bytes.Equal(got[i:i+width], want[i:i+width]) {
				t.Fatalf("%s: row %d = %x, want %x", name, i/width, got[i:i+width], want[i:i+width])
			}
		}
	}
}

// rowShape fills n rows of the given width.
type rowShape struct {
	name string
	fill func(rng *rand.Rand, buf []byte, width int)
}

// sharedPrefix gives every row the same first p bytes (clamped to the
// width) and random bytes after them.
func sharedPrefix(p int) rowShape {
	return rowShape{fmt.Sprintf("prefix%d", p), func(rng *rand.Rand, buf []byte, width int) {
		rng.Read(buf)
		p := min(p, width)
		for i := width; i < len(buf); i += width {
			copy(buf[i:i+p], buf[:p])
		}
	}}
}

var rowShapes = []rowShape{
	{"random", func(rng *rand.Rand, buf []byte, _ int) { rng.Read(buf) }},
	{"alphabet4", func(rng *rand.Rand, buf []byte, _ int) {
		for i := range buf {
			buf[i] = byte(rng.Intn(4))
		}
	}},
	{"equal", func(rng *rand.Rand, buf []byte, width int) {
		rng.Read(buf[:min(width, len(buf))])
		for i := width; i < len(buf); i += width {
			copy(buf[i:i+width], buf[:width])
		}
	}},
	// Small dense IDs encoded big-endian, four bytes each, as cube sort
	// keys are: every ID's leading bytes are zero.
	{"smallIDs", func(rng *rand.Rand, buf []byte, _ int) {
		var id [4]byte
		for i := range buf {
			if i%4 == 0 {
				binary.BigEndian.PutUint32(id[:], uint32(rng.Intn(300)))
			}
			buf[i] = id[i%4]
		}
	}},
	sharedPrefix(3),
	sharedPrefix(39),
}

// TestSortRowsMatchesReference compares sortRows with slices.SortFunc over
// widths 1-40, row counts from 0 to 10,000 and every row shape.
func TestSortRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	counts := []int{0, 1, 2, 3, insertionRows, insertionRows + 1, 300, 10_000}
	if testing.Short() {
		counts = counts[:len(counts)-1]
	}
	for width := 1; width <= 40; width++ {
		for _, n := range counts {
			for _, sh := range rowShapes {
				buf := make([]byte, n*width)
				sh.fill(rng, buf, width)
				checkSortRows(t, fmt.Sprintf("w=%d n=%d %s", width, n, sh.name), buf, width)
			}
		}
	}
}

// TestSortRowsSharedPrefixes has 40-byte rows share every leading-byte
// count from 0 to 39, so each byte position is the first that differs.
func TestSortRowsSharedPrefixes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const width = 40
	for p := 0; p < width; p++ {
		buf := make([]byte, 1000*width)
		sharedPrefix(p).fill(rng, buf, width)
		// A few duplicates and an all-zero prefix variant on top.
		copy(buf[width:2*width], buf[:width])
		checkSortRows(t, fmt.Sprintf("prefix %d", p), buf, width)
		for i := 0; i < len(buf); i += width {
			clear(buf[i : i+p])
		}
		checkSortRows(t, fmt.Sprintf("zero prefix %d", p), buf, width)
	}
}

// TestSortRowsAllocs pins sortRows' scratch: one row, the same at 100 rows
// as at 10,000.
func TestSortRowsAllocs(t *testing.T) {
	const width = 24
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{100, 10_000} {
		src := make([]byte, n*width)
		rng.Read(src)
		buf := make([]byte, len(src))
		allocs := testing.AllocsPerRun(5, func() {
			copy(buf, src)
			sortRows(buf, width)
		})
		if allocs > 1 {
			t.Errorf("n=%d: %v allocations per sort, want at most 1", n, allocs)
		}
	}
}

// FuzzSortRows compares sortRows with the reference on arbitrary rows.
func FuzzSortRows(f *testing.F) {
	f.Add(byte(4), []byte{0, 0, 0, 9, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0})
	f.Add(byte(1), bytes.Repeat([]byte{7, 3, 7, 0}, 20))
	f.Add(byte(40), bytes.Repeat([]byte{1}, 40*30))
	f.Fuzz(func(t *testing.T, width byte, data []byte) {
		w := int(width)%40 + 1
		data = data[:len(data)/w*w]
		checkSortRows(t, fmt.Sprintf("w=%d", w), data, w)
	})
}
