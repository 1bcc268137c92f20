package cellfile

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"x3/internal/agg"
	"x3/internal/match"
)

// sliceStream is a Stream over fixed cells.
type sliceStream struct {
	cells []Cell
	pos   int
}

func (s *sliceStream) Next(context.Context) (*Cell, error) {
	if s.pos >= len(s.cells) {
		return nil, nil
	}
	s.pos++
	return &s.cells[s.pos-1], nil
}

// failStream yields its cells, then fails.
type failStream struct {
	sliceStream
	err error
}

func (f *failStream) Next(ctx context.Context) (*Cell, error) {
	if c, _ := f.sliceStream.Next(ctx); c != nil {
		return c, nil
	}
	return nil, f.err
}

// cell builds a cell whose state counts n facts of measure m each.
func cell(point uint32, n int, m float64, key ...match.ValueID) Cell {
	var s agg.State
	for range n {
		s.Add(m)
	}
	return Cell{Point: point, Key: key, State: s}
}

func streams(srcs ...[]Cell) []Stream {
	out := make([]Stream, len(srcs))
	for i, cells := range srcs {
		out[i] = &sliceStream{cells: cells}
	}
	return out
}

func TestMergeInterleaves(t *testing.T) {
	srcs := streams(
		[]Cell{cell(0, 1, 1, 1), cell(0, 1, 1, 3), cell(2, 1, 1, 0)},
		[]Cell{cell(0, 2, 1, 2), cell(0, 2, 1, 3), cell(1, 2, 1)},
		nil,
	)
	var got []string
	err := Merge(t.Context(), srcs, func(c *Cell) error {
		got = append(got, fmt.Sprintf("%d%v#%d", c.Point, c.Key, c.State.N))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Equal cells are not combined, and ties break to the lower source:
	// 0[3] arrives from source 0 (count 1) before source 1 (count 2).
	want := "[0[1]#1 0[2]#2 0[3]#1 0[3]#2 1[]#2 2[0]#1]"
	if fmt.Sprint(got) != want {
		t.Fatalf("merged %v, want %s", got, want)
	}
}

func TestMergeEmitError(t *testing.T) {
	boom := errors.New("boom")
	srcs := streams([]Cell{cell(0, 1, 1, 1), cell(0, 1, 1, 2)})
	if err := Merge(t.Context(), srcs, func(*Cell) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Merge err = %v, want the emit error", err)
	}
	srcs = streams([]Cell{cell(0, 1, 1, 1), cell(0, 1, 1, 2)})
	if err := MergeAgg(t.Context(), srcs, func(*Cell) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("MergeAgg err = %v, want the emit error", err)
	}
	// A source's error surfaces wrapped, whether it fails on the first
	// pull or mid-merge.
	for _, cells := range [][]Cell{nil, {cell(0, 1, 1, 1)}} {
		srcs := []Stream{&sliceStream{cells: []Cell{cell(0, 1, 1, 0)}}, &failStream{sliceStream{cells: cells}, ErrCorrupt}}
		if err := Merge(t.Context(), srcs, func(*Cell) error { return nil }); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("source failure after %d cells: err = %v, want ErrCorrupt", len(cells), err)
		}
	}
}

func TestMergeCancelStops(t *testing.T) {
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	err := Merge(ctx, streams([]Cell{cell(0, 1, 1)}), func(*Cell) error { return nil })
	if !errors.Is(err, context.Canceled) || !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
}

func TestMergeEmpty(t *testing.T) {
	never := func(*Cell) error {
		t.Fatal("emit called on an empty merge")
		return nil
	}
	for _, srcs := range [][]Stream{nil, streams(nil, nil)} {
		if err := Merge(t.Context(), srcs, never); err != nil {
			t.Fatal(err)
		}
		if err := MergeAgg(t.Context(), srcs, never); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMergeAggMatchesReference checks MergeAgg against a map that folds
// every source's cells in source order: the same distinct cells, in file
// order, each with the bit-identical state. Measures are inexact binary
// fractions, so a state merged in any other order would differ in its
// low bits. Sources overlap on keys, some are empty, and they run out at
// different points.
func TestMergeAggMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{0, 1, 2, 5} {
		for trial := range 20 {
			srcs := make([][]Cell, k)
			type ref struct {
				cell Cell
				seen bool
			}
			want := map[string]*ref{}
			for i := range srcs {
				if rng.Intn(4) == 0 {
					continue // an empty source
				}
				// A random subset of a small key space, in file order.
				for p := uint32(0); p < 3; p++ {
					for v := match.ValueID(0); v < 6; v++ {
						if rng.Intn(2) == 0 {
							continue
						}
						c := cell(p, 1+rng.Intn(3), 0.1*float64(1+rng.Intn(9)), v, v%2)
						srcs[i] = append(srcs[i], c)
						id := fmt.Sprint(c.Point, c.Key)
						if r, ok := want[id]; ok {
							r.cell.State.Merge(c.State)
						} else {
							want[id] = &ref{cell: cloneCell(c)}
						}
					}
				}
			}
			var prev *Cell
			err := MergeAgg(t.Context(), streams(srcs...), func(c *Cell) error {
				if prev != nil && compareCellPtrs(prev, c) >= 0 {
					t.Fatalf("k=%d trial %d: %d%v after %d%v", k, trial, c.Point, c.Key, prev.Point, prev.Key)
				}
				kept := cloneCell(*c)
				prev = &kept
				r, ok := want[fmt.Sprint(c.Point, c.Key)]
				if !ok || r.seen {
					t.Fatalf("k=%d trial %d: unexpected or repeated cell %d%v", k, trial, c.Point, c.Key)
				}
				r.seen = true
				if c.State != r.cell.State {
					t.Fatalf("k=%d trial %d: cell %d%v state %+v, reference %+v", k, trial, c.Point, c.Key, c.State, r.cell.State)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for id, r := range want {
				if !r.seen {
					t.Fatalf("k=%d trial %d: cell %s never emitted", k, trial, id)
				}
			}
		}
	}
}
