package match

import "fmt"

// ValueID is a dictionary-encoded grouping value. IDs are dense per axis;
// algorithms compare and sort IDs instead of strings.
type ValueID uint32

// Dict is an order-of-appearance string dictionary for one grouping axis.
// It is not synchronized: callers that share one across goroutines guard
// it themselves.
//
// A Dict made by Overlay is a copy-on-write view of a parent: IDs below
// base resolve through the parent, and vals/idx hold only the values the
// overlay interned itself, numbered from base.
type Dict struct {
	vals   []string
	idx    map[string]ValueID
	parent *Dict
	base   int
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{idx: make(map[string]ValueID)}
}

// ID interns s and returns its ValueID.
func (d *Dict) ID(s string) ValueID {
	if id, ok := d.idx[s]; ok {
		return id
	}
	if id, ok := d.inParent(s); ok {
		return id
	}
	id := ValueID(d.Len())
	d.vals = append(d.vals, s)
	if d.idx == nil {
		d.idx = make(map[string]ValueID)
	}
	d.idx[s] = id
	return id
}

// Lookup returns the ValueID of s without interning.
func (d *Dict) Lookup(s string) (ValueID, bool) {
	if id, ok := d.idx[s]; ok {
		return id, true
	}
	return d.inParent(s)
}

// inParent resolves s through an overlay's parent. Only the parent's
// values as of Overlay count: anything it gained since would collide
// with the overlay's own numbering (Commit refuses that case).
func (d *Dict) inParent(s string) (ValueID, bool) {
	if d.parent == nil {
		return 0, false
	}
	id, ok := d.parent.Lookup(s)
	return id, ok && int(id) < d.base
}

// Value returns the string for id; it panics on an unknown id, which is
// always a programming error.
func (d *Dict) Value(id ValueID) string {
	if int(id) < d.base {
		return d.parent.Value(id)
	}
	i := int(id) - d.base
	if i >= len(d.vals) {
		panic(fmt.Sprintf("match: ValueID %d out of range (%d values)", id, d.Len()))
	}
	return d.vals[i]
}

// Len returns the number of distinct values.
func (d *Dict) Len() int { return d.base + len(d.vals) }

// Values returns the values in ID order; callers must not modify the
// result. On a root dictionary it is the backing slice; on an overlay it
// is a fresh slice of the parent's values followed by the overlay's own.
func (d *Dict) Values() []string {
	if d.parent == nil {
		return d.vals
	}
	out := make([]string, 0, d.Len())
	out = append(out, d.parent.Values()[:d.base]...)
	return append(out, d.vals...)
}

// Overlay returns a copy-on-write view of d for staging: values d holds
// keep their IDs, and values new to d are interned only in the overlay,
// numbered from d.Len(). d is untouched until Commit, so an abandoned
// overlay costs nothing to discard. d must not grow while the overlay is
// in use except through the overlay's own Commit.
func (d *Dict) Overlay() *Dict {
	return &Dict{parent: d, base: d.Len()}
}

// Commit appends the values the overlay interned to its parent in ID
// order, so the parent assigns them exactly the IDs the overlay handed
// out. It fails, changing nothing, if the parent grew since Overlay (or
// the last Commit): those IDs would collide. Afterwards the overlay is
// empty and rebased on the grown parent, so IDs it issued still resolve.
func (d *Dict) Commit() error {
	if d.parent == nil {
		return fmt.Errorf("match: Commit on a dictionary that is not an overlay")
	}
	if n := d.parent.Len(); n != d.base {
		return fmt.Errorf("match: overlay parent grew from %d to %d values since the overlay was taken", d.base, n)
	}
	for _, v := range d.vals {
		d.parent.ID(v)
	}
	d.base, d.vals, d.idx = d.parent.Len(), nil, nil
	return nil
}

// clone returns an independent root dictionary holding d's values under
// the same IDs.
func (d *Dict) clone() *Dict {
	vals := d.Values()
	nd := &Dict{vals: make([]string, len(vals)), idx: make(map[string]ValueID, len(vals))}
	copy(nd.vals, vals)
	for i, v := range vals {
		nd.idx[v] = ValueID(i)
	}
	return nd
}
