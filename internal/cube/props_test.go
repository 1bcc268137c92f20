package cube

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"x3/internal/match"
)

// TestAbsorbEqualsRemeasure pins the monotonicity argument that lets a
// store keep measured properties under appends without re-scanning: for
// any split of a fact set into A then B, MeasureProps(A).Absorb(B) equals
// MeasureProps(A∪B) on every (axis, state), and the receiver is left as
// it was. The sets mix empty value sets (coverage violations) and
// multi-valued ones (disjointness violations) at several rates, and the
// splits include empty prefixes and empty deltas.
func TestAbsorbEqualsRemeasure(t *testing.T) {
	shapes := [][]int{{1}, {2, 3}, {3, 1, 2}}
	rates := []struct{ missing, repeat float64 }{{0, 0}, {0.05, 0}, {0, 0.1}, {0.1, 0.3}, {0.5, 0.5}}
	flips := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shape := shapes[int(seed)%len(shapes)]
		r := rates[int(seed)%len(rates)]
		n := rng.Intn(40)
		lat, set := synthSet(t, rng, shape, n, 6, r.missing, r.repeat)
		for _, cut := range []int{0, rng.Intn(n + 1), n} {
			t.Run(fmt.Sprintf("seed%d/cut%d", seed, cut), func(t *testing.T) {
				a := &match.Set{Lattice: lat, Dicts: set.Dicts, Facts: set.Facts[:cut]}
				b := &match.Set{Lattice: lat, Dicts: set.Dicts, Facts: set.Facts[cut:]}
				pa, err := MeasureProps(lat, a)
				if err != nil {
					t.Fatal(err)
				}
				before := &MeasuredProps{dis: cloneRows(pa.dis), cov: cloneRows(pa.cov)}
				got, err := pa.Absorb(b)
				if err != nil {
					t.Fatal(err)
				}
				want, err := MeasureProps(lat, set)
				if err != nil {
					t.Fatal(err)
				}
				for ax := range want.dis {
					for s := range want.dis[ax] {
						if got.Disjoint(ax, s) != want.Disjoint(ax, s) || got.Covered(ax, s) != want.Covered(ax, s) {
							t.Fatalf("axis %d state %d: absorbed (dis %v, cov %v), re-measured (dis %v, cov %v)",
								ax, s, got.Disjoint(ax, s), got.Covered(ax, s), want.Disjoint(ax, s), want.Covered(ax, s))
						}
						if pa.Disjoint(ax, s) != got.Disjoint(ax, s) || pa.Covered(ax, s) != got.Covered(ax, s) {
							flips++
						}
					}
				}
				if !reflect.DeepEqual(pa, before) {
					t.Fatal("Absorb modified its receiver")
				}
			})
		}
	}
	if flips == 0 {
		t.Fatal("no delta ever flipped a property — the sweep is not exercising Absorb")
	}
}

// TestAbsorbPropagatesSourceError checks a source failing mid-stream
// yields no properties rather than a half-absorbed copy, and leaves the
// receiver alone.
func TestAbsorbPropagatesSourceError(t *testing.T) {
	lat, set := synthSet(t, rand.New(rand.NewSource(3)), []int{2}, 10, 4, 0.3, 0.3)
	p, err := MeasureProps(lat, &match.Set{Lattice: lat, Dicts: set.Dicts})
	if err != nil {
		t.Fatal(err)
	}
	before := &MeasuredProps{dis: cloneRows(p.dis), cov: cloneRows(p.cov)}
	src := &failingSource{set: set, after: 5}
	if got, err := p.Absorb(src); !errors.Is(err, errSourceBoom) || got != nil {
		t.Fatalf("Absorb over a failing source = %v, %v", got, err)
	}
	if !reflect.DeepEqual(p, before) {
		t.Fatal("a failed Absorb modified its receiver")
	}
	if _, err := MeasureProps(lat, src); !errors.Is(err, errSourceBoom) {
		t.Fatalf("MeasureProps over a failing source: %v", err)
	}
}
