package serve

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"x3/internal/dataset"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/xmltree"
)

// articleDoc is a one-article DBLP document.
func articleDoc(tb testing.TB, key, author, journal string, year int) *xmltree.Document {
	tb.Helper()
	doc, err := xmltree.ParseString(fmt.Sprintf(
		`<dblp><article key="%s"><author>%s</author><title>T</title><journal>%s</journal><year>%d</year><month>may</month></article></dblp>`,
		key, author, journal, year))
	if err != nil {
		tb.Fatal(err)
	}
	return doc
}

// dictLens reports the length of every live dictionary of s.
func dictLens(s *Store) []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int, len(s.base.Dicts))
	for a, d := range s.base.Dicts {
		out[a] = d.Len()
	}
	return out
}

func dblpLattice(tb testing.TB) *lattice.Lattice {
	tb.Helper()
	lat, err := lattice.New(dataset.DBLPQuery())
	if err != nil {
		tb.Fatal(err)
	}
	return lat
}

// appendAllocBytes builds a ladder store over n one-author articles —
// every article a distinct author, so the author dictionary holds n
// values — and returns the bytes allocated per append over 20 appends.
// Every appended value is already known, so the live dictionaries never
// grow and the measurement isolates staging from amortized growth.
func appendAllocBytes(t *testing.T, n int) float64 {
	t.Helper()
	lat := dblpLattice(t)
	var b strings.Builder
	b.WriteString("<dblp>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<article key="journals/j%d/a%d"><author>Author %d</author><title>T</title><journal>Journal %d</journal><year>%d</year><month>may</month></article>`,
			i%50, i, i, i%50, 1990+i%16)
	}
	b.WriteString("</dblp>")
	doc, err := xmltree.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	set, err := match.Evaluate(doc, lat)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildDir(t.TempDir(), lat, set, Options{FlushCells: -1, CompactAfter: -1, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var bodies [][]byte
	for k := 0; k <= 20; k++ {
		bodies = append(bodies, docBytes(t, articleDoc(t, fmt.Sprintf("journals/j0/new%d", k),
			fmt.Sprintf("Author %d", k), fmt.Sprintf("Journal %d", k%50), 1990+k%16)))
	}
	ctx := context.Background()
	// The first append pays one-off costs: the store's cloned fact slice
	// gains headroom, and the memtable creates its cuboid tables.
	if _, err := s.Append(ctx, bodies[0]); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, body := range bodies[1:] {
		if _, err := s.Append(ctx, body); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got, want := dictLens(s)[0], n; got != want {
		t.Fatalf("author dictionary holds %d values, want %d", got, want)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(bodies)-1)
}

// TestAppendCostIndependentOfCorpus pins O(document) staging: the bytes
// an append allocates must not grow with the corpus behind the store. A
// staging path that clones dictionaries, copies the fact slice or
// re-measures properties per append allocates in proportion to the
// corpus, and fails here by a wide margin.
func TestAppendCostIndependentOfCorpus(t *testing.T) {
	const n = 1000
	small := appendAllocBytes(t, n)
	large := appendAllocBytes(t, 8*n)
	t.Logf("bytes allocated per append: %.0f over %d facts, %.0f over %d", small, n, large, 8*n)
	if ratio := large / small; ratio > 1.5 || ratio < 1/1.5 {
		t.Fatalf("per-append allocation moved %.2fx between a corpus of %d and one of %d facts", ratio, n, 8*n)
	}
}

// TestLadderStoresFromOneSetStayIndependent builds two ladder stores from
// one match.Set and appends different documents to each, interleaved.
// Each store must serve its own history byte-equal to its own oracle,
// and the caller's set must keep its facts and dictionaries: a store
// extends only its own clone. The caller's fact slice is given spare
// capacity, so a store that appended into it would write where the
// other store writes too.
func TestLadderStoresFromOneSetStayIndependent(t *testing.T) {
	ds := ladderDatasets()[1]
	lat := ds.lat(t)
	baseDoc := ds.doc(3)
	set, err := match.Evaluate(baseDoc, lat)
	if err != nil {
		t.Fatal(err)
	}
	set.Facts = append(make([]*match.Fact, 0, len(set.Facts)+64), set.Facts...)
	facts := len(set.Facts)
	lens := make([]int, len(set.Dicts))
	for a, d := range set.Dicts {
		lens[a] = d.Len()
	}

	ctx := context.Background()
	opt := Options{Views: 1, BlockCells: 16, FlushCells: -1, CompactAfter: -1}
	var stores []*Store
	var oracles []*ladderOracle
	for i := 0; i < 2; i++ {
		o := newLadderOracle(t, lat)
		o.add(t, baseDoc)
		s, err := BuildDir(t.TempDir(), lat, set, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		stores, oracles = append(stores, s), append(oracles, o)
	}
	for k := 1; k <= 3; k++ {
		for i, s := range stores {
			docs := []*xmltree.Document{
				ds.doc(int64(100*(i+1) + k)),
				articleDoc(t, fmt.Sprintf("journals/j0/s%d-%d", i, k), fmt.Sprintf("Store %d Author %d", i, k), "Journal 0", 2000),
			}
			for _, doc := range docs {
				oracles[i].add(t, doc)
				if _, err := s.Append(ctx, docBytes(t, doc)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	plans := map[PlanKind]int{}
	for i, s := range stores {
		sweepLadder(t, s, oracles[i].result(t), plans)
	}
	if plans[PlanBase] == 0 {
		t.Fatalf("plan mix %v: no answer read the base facts the stores extend", plans)
	}
	if len(set.Facts) != facts {
		t.Fatalf("caller's set has %d facts, was %d", len(set.Facts), facts)
	}
	for a, d := range set.Dicts {
		if d.Len() != lens[a] {
			t.Fatalf("caller's axis %d dictionary has %d values, was %d", a, d.Len(), lens[a])
		}
	}
}
