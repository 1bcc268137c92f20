package extsort

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// benchRows builds n random rows of the given width.
func benchRows(n, width int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]byte, n)
	for i := range rows {
		r := make([]byte, width)
		binary.BigEndian.PutUint64(r, rng.Uint64())
		rows[i] = r
	}
	return rows
}

// BenchmarkSort compares in-memory quicksort with external merge sort on
// identical inputs (the latter forced by a small buffer limit).
func BenchmarkSort(b *testing.B) {
	const width = 24
	rows := benchRows(50_000, width, 9)
	for _, tc := range []struct {
		name  string
		limit int64
	}{
		{"inmemory", 0},
		{"external-8runs", int64(len(rows)) * width / 8},
		{"external-64runs", int64(len(rows)) * width / 64},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := New(width, tc.limit, b.TempDir())
				for _, r := range rows {
					if err := s.Add(nil, r); err != nil {
						b.Fatal(err)
					}
				}
				it, st, err := s.Finish(nil)
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for {
					row, err := it.Next()
					if err != nil {
						b.Fatal(err)
					}
					if row == nil {
						break
					}
					n++
				}
				it.Close()
				if n != len(rows) {
					b.Fatalf("drained %d rows (stats %+v)", n, st)
				}
			}
		})
	}
}

// BenchmarkSortRowsInPlace measures the in-place radix sort alone, the
// in-memory sort of every run.
func BenchmarkSortRowsInPlace(b *testing.B) {
	for _, width := range []int{8, 40} {
		rows := benchRows(20_000, width, 3)
		flat := make([]byte, 0, len(rows)*width)
		for _, r := range rows {
			flat = append(flat, r...)
		}
		b.Run(fmt.Sprintf("w=%d", width), func(b *testing.B) {
			buf := make([]byte, len(flat))
			for i := 0; i < b.N; i++ {
				copy(buf, flat)
				sortRows(buf, width)
			}
		})
	}
}
