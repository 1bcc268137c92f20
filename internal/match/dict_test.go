package match

import (
	"reflect"
	"testing"
)

func TestDictOverlayStagesWithoutTouchingParent(t *testing.T) {
	d := NewDict()
	x, y := d.ID("x"), d.ID("y")
	o := d.Overlay()
	if got := o.ID("y"); got != y {
		t.Fatalf("overlay re-numbered a known value: %d, want %d", got, y)
	}
	z := o.ID("z")
	w := o.ID("w")
	if z != 2 || w != 3 || o.ID("z") != z {
		t.Fatalf("new values numbered %d, %d; want 2, 3 from the parent's Len", z, w)
	}
	if d.Len() != 2 {
		t.Fatalf("staging grew the parent to %d values", d.Len())
	}
	if _, ok := d.Lookup("z"); ok {
		t.Fatal("parent sees a staged value before Commit")
	}
	if id, ok := o.Lookup("x"); !ok || id != x {
		t.Fatalf("overlay Lookup(x) = %d, %v", id, ok)
	}
	if _, ok := o.Lookup("v"); ok {
		t.Fatal("overlay Lookup found a value nobody interned")
	}
	if o.Len() != 4 || o.Value(x) != "x" || o.Value(w) != "w" {
		t.Fatalf("overlay view: Len %d, Value(x) %q, Value(w) %q", o.Len(), o.Value(x), o.Value(w))
	}
	if got := o.Values(); !reflect.DeepEqual(got, []string{"x", "y", "z", "w"}) {
		t.Fatalf("overlay Values = %v", got)
	}

	if err := o.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := d.Values(); !reflect.DeepEqual(got, []string{"x", "y", "z", "w"}) {
		t.Fatalf("parent after Commit = %v", got)
	}
	if id, _ := d.Lookup("w"); id != w {
		t.Fatalf("parent numbered w %d, the overlay handed out %d", id, w)
	}
	// The committed overlay is rebased: its IDs still resolve, a second
	// Commit is a no-op, and it can keep staging.
	if o.Value(z) != "z" || o.Len() != 4 {
		t.Fatalf("rebased overlay: Value(z) %q, Len %d", o.Value(z), o.Len())
	}
	if err := o.Commit(); err != nil {
		t.Fatalf("empty re-commit: %v", err)
	}
	if v := o.ID("v"); v != 4 {
		t.Fatalf("rebased overlay numbered v %d, want 4", v)
	}
	if err := o.Commit(); err != nil || d.Len() != 5 {
		t.Fatalf("second commit: %v, parent Len %d", err, d.Len())
	}
}

func TestDictOverlayCommitRefusesGrownParent(t *testing.T) {
	d := NewDict()
	d.ID("a")
	o := d.Overlay()
	o.ID("b")
	// The parent gains a value behind the overlay's back: both now claim
	// ID 1, so the overlay must neither resolve it nor commit.
	d.ID("c")
	if _, ok := o.Lookup("c"); ok {
		t.Fatal("overlay resolved a value its parent gained after Overlay")
	}
	if err := o.Commit(); err == nil {
		t.Fatal("Commit succeeded over a grown parent")
	}
	if got := d.Values(); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Fatalf("refused Commit changed the parent: %v", got)
	}
	if err := NewDict().Commit(); err == nil {
		t.Fatal("Commit on a root dictionary succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Error("overlay Value past its Len did not panic")
		}
	}()
	o.Value(7)
}

func TestSetCloneIsIndependent(t *testing.T) {
	_, set := paperSet(t)
	c := set.Clone()
	if c.Lattice != set.Lattice || len(c.Facts) != len(set.Facts) || len(c.Dicts) != len(set.Dicts) {
		t.Fatal("clone lost its lattice, facts or dictionaries")
	}
	for i := range set.Facts {
		if c.Facts[i] != set.Facts[i] {
			t.Fatalf("fact %d not shared", i)
		}
	}
	for a, d := range set.Dicts {
		if c.Dicts[a] == d || !reflect.DeepEqual(c.Dicts[a].Values(), d.Values()) {
			t.Fatalf("axis %d: clone dictionary is shared or reordered", a)
		}
	}
	c.Dicts[0].ID("a value only the clone has")
	c.Facts = append(c.Facts, &Fact{})
	c.Facts[0] = nil
	if set.Dicts[0].Len() == c.Dicts[0].Len() || set.Facts[0] == nil {
		t.Fatal("growing the clone changed the original")
	}

	// Cloning an overlay flattens it into a root with the same numbering.
	o := set.Dicts[0].Overlay()
	o.ID("staged")
	flat := (&Set{Dicts: []*Dict{o}}).Clone().Dicts[0]
	if !reflect.DeepEqual(flat.Values(), o.Values()) {
		t.Fatalf("flattened overlay = %v, want %v", flat.Values(), o.Values())
	}
	if id, ok := flat.Lookup("staged"); !ok || flat.Value(id) != "staged" {
		t.Fatal("flattened overlay lost its staged value")
	}
}
