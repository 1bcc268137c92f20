package extsort

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
)

// sortedChunks builds k sorted row buffers from one random row set and
// returns them plus the globally sorted concatenation.
func sortedChunks(rng *rand.Rand, k, rowsPer, width int) ([][]byte, [][]byte) {
	var all [][]byte
	chunks := make([][]byte, k)
	for c := range chunks {
		n := rng.Intn(rowsPer + 1) // some chunks may be empty
		buf := make([]byte, 0, n*width)
		for i := 0; i < n; i++ {
			row := make([]byte, width)
			for j := range row {
				row[j] = byte(rng.Intn(4)) // small alphabet: many duplicates
			}
			buf = append(buf, row...)
			all = append(all, row)
		}
		sortRows(buf, width)
		chunks[c] = buf
	}
	sort.Slice(all, func(i, j int) bool { return bytes.Compare(all[i], all[j]) < 0 })
	return chunks, all
}

// TestLoserTreeMerge drives the tournament tree directly over in-memory
// sources and checks the merged sequence equals a global sort, for source
// counts around every power-of-two boundary.
func TestLoserTreeMerge(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16} {
		rng := rand.New(rand.NewSource(int64(k)))
		chunks, want := sortedChunks(rng, k, 200, 5)
		srcs := make([]mergeSource, k)
		for i, buf := range chunks {
			srcs[i] = &memRun{buf: buf, w: 5}
		}
		lt := rowTree(srcs)
		var got [][]byte
		for {
			w, row, ok := lt.Winner()
			if !ok {
				break
			}
			got = append(got, append([]byte(nil), row...))
			if err := srcs[w].next(); err != nil {
				t.Fatal(err)
			}
			row = srcs[w].cur()
			lt.Advance(row, row != nil)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: merged %d rows, want %d", k, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("k=%d row %d: %x, want %x", k, i, got[i], want[i])
			}
		}
	}
}

// TestLoserTreeNoSources checks the k=0 edge and a bracket of empty
// sources: Winner reports no item.
func TestLoserTreeNoSources(t *testing.T) {
	if w, _, ok := rowTree(nil).Winner(); ok {
		t.Fatalf("winner = %d for empty tree", w)
	}
	if w, _, ok := rowTree([]mergeSource{&memRun{w: 5}, &memRun{w: 5}}).Winner(); ok {
		t.Fatalf("winner = %d over exhausted sources", w)
	}
}

// runSorter feeds data through a sorter and returns the drained output and
// stats.
func runSorter(t *testing.T, s *Sorter, data [][]byte) ([][]byte, Stats) {
	t.Helper()
	for _, r := range data {
		if err := s.Add(nil, r); err != nil {
			t.Fatal(err)
		}
	}
	it, st, err := s.Finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	width := len(data[0])
	return drain(t, it, width), st
}

// TestParallelSpillMatchesSerial checks the async run-formation path
// produces the exact byte sequence and statistics of the serial external
// sort: equal rows are byte-identical and ties break by source index, so
// background spill order cannot show in the output.
func TestParallelSpillMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const width, n = 8, 6000
	data := make([][]byte, n)
	for i := range data {
		row := make([]byte, width)
		for j := range row {
			row[j] = byte(rng.Intn(8))
		}
		data[i] = row
	}

	serial := New(width, 2048, t.TempDir())
	wantRows, wantStats := runSorter(t, serial, data)
	if !wantStats.External || wantStats.Runs < 4 {
		t.Fatalf("workload too small to spill: %+v", wantStats)
	}

	for _, workers := range []int{2, 4, 8} {
		par := New(width, 2048, t.TempDir())
		par.Parallel(workers)
		gotRows, gotStats := runSorter(t, par, data)
		if gotStats != wantStats {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, gotStats, wantStats)
		}
		if len(gotRows) != len(wantRows) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(gotRows), len(wantRows))
		}
		for i := range gotRows {
			if !bytes.Equal(gotRows[i], wantRows[i]) {
				t.Fatalf("workers=%d row %d: %x, want %x", workers, i, gotRows[i], wantRows[i])
			}
		}
	}
}

// TestParallelInMemoryMatchesSerial checks the chunked concurrent
// in-memory sort (no spilling) against the serial quicksort, above and
// below the parallel threshold.
func TestParallelInMemoryMatchesSerial(t *testing.T) {
	for _, n := range []int{parallelSortMinRows - 1, parallelSortMinRows, parallelSortMinRows * 3} {
		rng := rand.New(rand.NewSource(int64(n)))
		const width = 6
		data := make([][]byte, n)
		for i := range data {
			row := make([]byte, width)
			binary.BigEndian.PutUint32(row, rng.Uint32())
			row[4], row[5] = byte(rng.Intn(3)), byte(rng.Intn(3))
			data[i] = row
		}

		serial := New(width, 0, t.TempDir())
		wantRows, wantStats := runSorter(t, serial, data)
		if wantStats.External {
			t.Fatal("unlimited sorter spilled")
		}

		par := New(width, 0, t.TempDir())
		par.Parallel(4)
		gotRows, gotStats := runSorter(t, par, data)
		if gotStats != wantStats {
			t.Fatalf("n=%d: stats %+v, want %+v", n, gotStats, wantStats)
		}
		for i := range gotRows {
			if !bytes.Equal(gotRows[i], wantRows[i]) {
				t.Fatalf("n=%d row %d: %x, want %x", n, i, gotRows[i], wantRows[i])
			}
		}
	}
}

// TestParallelEmpty checks a parallel sorter with no rows finishes cleanly.
func TestParallelEmpty(t *testing.T) {
	s := New(4, 16, t.TempDir())
	s.Parallel(4)
	it, st, err := s.Finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows := drain(t, it, 4); len(rows) != 0 || st.Rows != 0 {
		t.Fatalf("rows=%d stats=%+v", len(rows), st)
	}
}
