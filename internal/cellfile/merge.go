package cellfile

import (
	"context"
	"fmt"
	"slices"

	"x3/internal/extsort"
)

// Stream is one sorted input of Merge: Next returns the next cell in
// file order, or nil once the stream is exhausted. The cell, key
// included, is borrowed until the following Next. A *Cursor is a
// Stream; so is any in-memory source that yields sorted cells.
type Stream interface {
	Next(ctx context.Context) (*Cell, error)
}

// mergeCheckEvery is how many emitted cells pass between context checks
// of a merge: cancellation latency stays bounded without taxing the
// per-cell path. (Cursors check again before every block.)
const mergeCheckEvery = 4096

// compareCellPtrs orders two cells in file order.
func compareCellPtrs(a, b *Cell) int { return compareCells(a.Point, a.Key, b.Point, b.Key) }

// Merge streams the union of srcs, each in file order, to emit in file
// order: extsort's loser-tree tournament over cells. Equal cells arrive
// in source order, and none is combined — a file written from a merge of
// runs holds exactly the cells its inputs held. The cell passed to emit
// is borrowed during the call. ctx (nil never cancels) is checked every
// few thousand cells and passed to every Next. An error from emit or a
// source aborts the merge and is returned.
func Merge(ctx context.Context, srcs []Stream, emit func(*Cell) error) error {
	lt := extsort.NewLoserTree(len(srcs), compareCellPtrs)
	for i, s := range srcs {
		c, err := s.Next(ctx)
		if err != nil {
			return fmt.Errorf("cellfile: merge source %d: %w", i, err)
		}
		lt.Push(c, c != nil)
	}
	for n := 0; ; n++ {
		w, c, ok := lt.Winner()
		if !ok {
			return nil
		}
		if n%mergeCheckEvery == 0 {
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
		if err := emit(c); err != nil {
			return err
		}
		next, err := srcs[w].Next(ctx)
		if err != nil {
			return fmt.Errorf("cellfile: merge source %d: %w", w, err)
		}
		lt.Advance(next, next != nil)
	}
}

// MergeAgg is Merge with equal cells combined: emit sees every distinct
// (point, key) once, its state the merge of every equal cell's state in
// source order — the first source's state merged with the second's, and
// so on. That order is fixed, so float sums come out bit-identical run
// after run. Distributive aggregate states over disjoint fact sets
// combine exactly this way (§3.2), which is why the delta ladder's
// generations answer, and compact, through it. The cell passed to emit is
// borrowed during the call.
func MergeAgg(ctx context.Context, srcs []Stream, emit func(*Cell) error) error {
	var pend Cell
	have := false
	err := Merge(ctx, srcs, func(c *Cell) error {
		if have && c.Point == pend.Point && slices.Equal(c.Key, pend.Key) {
			pend.State.Merge(c.State)
			return nil
		}
		if have {
			if err := emit(&pend); err != nil {
				return err
			}
		}
		pend.Point, pend.Key, pend.State, have = c.Point, append(pend.Key[:0], c.Key...), c.State, true
		return nil
	})
	if err != nil || !have {
		return err
	}
	return emit(&pend)
}
