package extsort

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// drain collects all rows from an iterator.
func drain(t *testing.T, it *Iterator, width int) [][]byte {
	t.Helper()
	var out [][]byte
	for {
		row, err := it.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if row == nil {
			break
		}
		cp := make([]byte, width)
		copy(cp, row)
		out = append(out, cp)
	}
	it.Close()
	return out
}

func checkSorted(t *testing.T, rows [][]byte) {
	t.Helper()
	for i := 1; i < len(rows); i++ {
		if bytes.Compare(rows[i-1], rows[i]) > 0 {
			t.Fatalf("rows %d,%d out of order: %x > %x", i-1, i, rows[i-1], rows[i])
		}
	}
}

func TestInMemorySort(t *testing.T) {
	s := New(4, 0, t.TempDir())
	rng := rand.New(rand.NewSource(7))
	n := 1000
	for i := 0; i < n; i++ {
		row := make([]byte, 4)
		binary.BigEndian.PutUint32(row, rng.Uint32())
		if err := s.Add(nil, row); err != nil {
			t.Fatal(err)
		}
	}
	it, st, err := s.Finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.External || st.Runs != 0 {
		t.Errorf("unexpected spill: %+v", st)
	}
	if st.Rows != int64(n) {
		t.Errorf("rows = %d", st.Rows)
	}
	rows := drain(t, it, 4)
	if len(rows) != n {
		t.Fatalf("drained %d rows", len(rows))
	}
	checkSorted(t, rows)
}

func TestExternalSortMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	width := 8
	n := 5000
	data := make([][]byte, n)
	for i := range data {
		row := make([]byte, width)
		rng.Read(row)
		data[i] = row
	}

	ext := New(width, 1024, t.TempDir()) // tiny buffer: many runs
	for _, r := range data {
		if err := ext.Add(nil, r); err != nil {
			t.Fatal(err)
		}
	}
	it, st, err := ext.Finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.External || st.Runs < 2 {
		t.Fatalf("expected external sort, got %+v", st)
	}
	got := drain(t, it, width)

	want := make([][]byte, n)
	copy(want, data)
	sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i], want[j]) < 0 })

	if len(got) != n {
		t.Fatalf("drained %d rows, want %d", len(got), n)
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("row %d = %x, want %x", i, got[i], want[i])
		}
	}
}

func TestDuplicatesSurvive(t *testing.T) {
	s := New(2, 8, t.TempDir())
	for i := 0; i < 100; i++ {
		if err := s.Add(nil, []byte{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	it, _, err := s.Finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, it, 2)
	if len(rows) != 100 {
		t.Fatalf("duplicates lost: %d rows", len(rows))
	}
}

func TestEmptyInput(t *testing.T) {
	s := New(4, 16, t.TempDir())
	it, st, err := s.Finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows := drain(t, it, 4); len(rows) != 0 {
		t.Fatalf("rows from empty sorter: %d", len(rows))
	}
	if st.Rows != 0 || st.External {
		t.Errorf("stats = %+v", st)
	}
}

func TestAddErrors(t *testing.T) {
	s := New(4, 0, t.TempDir())
	if err := s.Add(nil, []byte{1, 2}); err == nil {
		t.Error("wrong width accepted")
	}
	if _, _, err := s.Finish(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(nil, []byte{1, 2, 3, 4}); err == nil {
		t.Error("Add after Finish accepted")
	}
	if _, _, err := s.Finish(nil); err == nil {
		t.Error("double Finish accepted")
	}
}

func TestSortRowsInPlace(t *testing.T) {
	buf := []byte{9, 9, 3, 3, 1, 1, 5, 5}
	sortRows(buf, 2)
	want := []byte{1, 1, 3, 3, 5, 5, 9, 9}
	if !bytes.Equal(buf, want) {
		t.Fatalf("sortRows = %v", buf)
	}
	// Zero width and empty buffers are no-ops, not panics.
	sortRows(nil, 4)
	sortRows([]byte{1}, 0)
}

func TestPropertySortedPermutation(t *testing.T) {
	f := func(seed int64, n uint8, small bool) bool {
		rng := rand.New(rand.NewSource(seed))
		width := 6
		limit := int64(0)
		if small {
			limit = 64
		}
		s := New(width, limit, t.TempDir())
		counts := map[string]int{}
		for i := 0; i < int(n); i++ {
			row := make([]byte, width)
			// Small alphabet to force duplicates.
			for j := range row {
				row[j] = byte(rng.Intn(4))
			}
			counts[string(row)]++
			if err := s.Add(nil, row); err != nil {
				return false
			}
		}
		it, _, err := s.Finish(nil)
		if err != nil {
			return false
		}
		var prev []byte
		total := 0
		for {
			row, err := it.Next()
			if err != nil {
				return false
			}
			if row == nil {
				break
			}
			if prev != nil && bytes.Compare(prev, row) > 0 {
				return false
			}
			prev = append(prev[:0], row...)
			counts[string(row)]--
			total++
		}
		it.Close()
		if total != int(n) {
			return false
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
