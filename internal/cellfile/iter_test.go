package cellfile

import (
	"testing"
)

// TestIteratorMatchesEach pins the pull iterator to the callback walk:
// same cells, same (point, key) order, across small blocks that force
// many block-boundary crossings.
func TestIteratorMatchesEach(t *testing.T) {
	path, _ := buildIndexed(t, 5, 300, 9)
	r, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var want []Cell
	if err := r.Each(func(c Cell) error {
		want = append(want, cloneCell(c))
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	it := r.Iterate()
	var n int
	for {
		c, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			break
		}
		if n >= len(want) {
			t.Fatalf("iterator yielded more than the %d cells Each saw", len(want))
		}
		w := want[n]
		if c.Point != w.Point || c.State != w.State || len(c.Key) != len(w.Key) {
			t.Fatalf("cell %d: iterator %v, Each %v", n, *c, w)
		}
		for i := range c.Key {
			if c.Key[i] != w.Key[i] {
				t.Fatalf("cell %d key %d: iterator %d, Each %d", n, i, c.Key[i], w.Key[i])
			}
		}
		n++
	}
	if n != len(want) {
		t.Fatalf("iterator yielded %d cells, Each saw %d", n, len(want))
	}
	// Exhausted iterators stay exhausted.
	if c, err := it.Next(); c != nil || err != nil {
		t.Fatalf("Next after end = (%v, %v)", c, err)
	}
}

func TestIteratorEmptyFile(t *testing.T) {
	path, _ := buildIndexed(t, 5, 300, 9)
	r, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// A fresh iterator on a real file still terminates when asked past
	// the end repeatedly.
	it := r.Iterate()
	for {
		c, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			break
		}
	}
}
