package extsort

import "bytes"

// mergeSource is one sorted input of the sorter's k-way merge: a spilled
// run on disk (runReader) or a sorted in-memory chunk (memRun).
type mergeSource interface {
	// cur returns the current row, or nil when the source is exhausted.
	// The slice is only valid until the following next call.
	cur() []byte
	// next advances to the following row (io.EOF is consumed, not
	// returned; after the last row cur reports nil).
	next() error
}

// LoserTree is a tournament tree over k sorted sources of T: internal
// node n holds the index of the source that lost the match at n, and
// nodes[0] holds the overall winner. Selecting the next item then costs
// one root-to-leaf replay of ⌈log2 k⌉ comparisons against the recorded
// losers — roughly half the comparisons of a binary heap, which
// re-compares two children per level on the way down. Exhausted sources
// compare as +∞ and sink to the bottom of the bracket; ties break toward
// the lower source index, which makes the merge stable: equal items
// arrive in source order.
//
// The tree holds each source's current item but never reads a source
// itself: the owner pushes every source's first item, then after taking
// the winner pulls that source's next item and hands it to Advance. The
// sorter merges byte rows with it, package cellfile merges cells.
type LoserTree[T any] struct {
	nodes []int     // nodes[0] = winner; nodes[1:] = losers, -1 = unplayed
	heads []head[T] // each source's current item
	k     int
	cmp   func(a, b T) int
}

// head is one source's current item; live is false once it is exhausted.
type head[T any] struct {
	item T
	live bool
}

// NewLoserTree returns the bracket for k sources ordered by cmp. Push
// each source's first item, in source order, before calling Winner.
func NewLoserTree[T any](k int, cmp func(a, b T) int) *LoserTree[T] {
	n := max(k, 1)
	lt := &LoserTree[T]{nodes: make([]int, n), heads: make([]head[T], 0, k), k: k, cmp: cmp}
	for i := range lt.nodes {
		lt.nodes[i] = -1
	}
	return lt
}

// Push seeds the next source with its first item (ok false: the source
// is empty) and plays it up from its leaf. Meeting an empty node parks
// the current winner there — its opponent has not played yet; the last
// source on each path carries the match through to the root.
func (lt *LoserTree[T]) Push(item T, ok bool) {
	s := len(lt.heads)
	lt.heads = append(lt.heads, head[T]{item, ok})
	winner := s
	for n := (s + lt.k) / 2; n > 0; n /= 2 {
		if lt.nodes[n] < 0 {
			lt.nodes[n] = winner
			return
		}
		if lt.less(lt.nodes[n], winner) {
			winner, lt.nodes[n] = lt.nodes[n], winner
		}
	}
	lt.nodes[0] = winner
}

// less orders sources by current item (exhausted = +∞, ties by index).
func (lt *LoserTree[T]) less(i, j int) bool {
	a, b := &lt.heads[i], &lt.heads[j]
	if !b.live {
		return a.live || i < j
	}
	if !a.live {
		return false
	}
	if c := lt.cmp(a.item, b.item); c != 0 {
		return c < 0
	}
	return i < j
}

// Winner returns the source holding the smallest current item and that
// item; ok is false once every source is exhausted (or there are none).
func (lt *LoserTree[T]) Winner() (src int, item T, ok bool) {
	w := lt.nodes[0]
	if w < 0 || !lt.heads[w].live {
		var zero T
		return w, zero, false
	}
	return w, lt.heads[w].item, true
}

// Advance replaces the winner's current item with its source's next one
// (ok false: the source is exhausted) and replays the winner's
// root-to-leaf path.
func (lt *LoserTree[T]) Advance(item T, ok bool) {
	winner := lt.nodes[0]
	lt.heads[winner] = head[T]{item, ok}
	for n := (winner + lt.k) / 2; n > 0; n /= 2 {
		if lt.nodes[n] >= 0 && lt.less(lt.nodes[n], winner) {
			winner, lt.nodes[n] = lt.nodes[n], winner
		}
	}
	lt.nodes[0] = winner
}

// rowTree builds the byte-order bracket over the sorter's sources, each
// already positioned on its first row (or exhausted).
func rowTree(srcs []mergeSource) *LoserTree[[]byte] {
	lt := NewLoserTree(len(srcs), bytes.Compare)
	for _, s := range srcs {
		row := s.cur()
		lt.Push(row, row != nil)
	}
	return lt
}

// memRun adapts a sorted in-memory row buffer as a mergeSource.
type memRun struct {
	buf []byte
	w   int
	pos int
}

func (m *memRun) cur() []byte {
	if m.pos+m.w <= len(m.buf) {
		return m.buf[m.pos : m.pos+m.w]
	}
	return nil
}

func (m *memRun) next() error {
	m.pos += m.w
	return nil
}
