package x3

import (
	"strings"
	"testing"
)

const dblpDTDText = `
<!ELEMENT dblp (article*)>
<!ELEMENT article (author*, title, journal, year, month?)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT journal (#PCDATA)>
<!ELEMENT year (#PCDATA)>
<!ELEMENT month (#PCDATA)>
<!ATTLIST article key CDATA #REQUIRED>`

const dblpQueryText = `
for $a in doc("dblp.xml")//article,
    $au in $a/author, $m in $a/month, $y in $a/year, $j in $a/journal
x^3 $a/@key by $au (LND), $m (LND), $y (LND), $j (LND)
return COUNT($a)`

func TestAdviseDBLP(t *testing.T) {
	q, err := ParseQuery(dblpQueryText)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := Advise(q, dblpDTDText)
	if err != nil {
		t.Fatal(err)
	}
	if adv.SparseAlgorithm != "BUCCUST" || adv.DenseAlgorithm != "TDCUST" {
		t.Errorf("recommendation = %s/%s, want CUST pair", adv.SparseAlgorithm, adv.DenseAlgorithm)
	}
	if len(adv.Properties) != 4 {
		t.Fatalf("properties = %d", len(adv.Properties))
	}
	byAxis := map[string]AxisProperties{}
	for _, p := range adv.Properties {
		byAxis[p.Axis] = p
	}
	if byAxis["$au"].Disjoint || byAxis["$au"].Covered {
		t.Errorf("$au = %+v", byAxis["$au"])
	}
	if !byAxis["$y"].Disjoint || !byAxis["$y"].Covered {
		t.Errorf("$y = %+v", byAxis["$y"])
	}
	if byAxis["$m"].MaxOccurs != 1 || byAxis["$au"].MaxOccurs != -1 {
		t.Errorf("occurs: m=%+v au=%+v", byAxis["$m"], byAxis["$au"])
	}
	s := adv.String()
	for _, want := range []string{"$au", "BUCCUST", "TDCUST", "[0,*]"} {
		if !strings.Contains(s, want) {
			t.Errorf("Advice.String missing %q:\n%s", want, s)
		}
	}
}

func TestAdviseAllClean(t *testing.T) {
	q, err := ParseQuery(`
for $a in doc("d")//r, $x in $a/x, $y in $a/y
x3 $a by $x (LND), $y (LND) return COUNT($a)`)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := Advise(q, `
<!ELEMENT root (r*)><!ELEMENT r (x, y)>
<!ELEMENT x (#PCDATA)><!ELEMENT y (#PCDATA)>`)
	if err != nil {
		t.Fatal(err)
	}
	if adv.SparseAlgorithm != "BUCOPT" || adv.DenseAlgorithm != "TDOPTALL" {
		t.Errorf("clean schema recommendation = %s/%s", adv.SparseAlgorithm, adv.DenseAlgorithm)
	}
}

func TestAdviseNothingGuaranteed(t *testing.T) {
	q, err := ParseQuery(`
for $a in doc("d")//r, $x in $a/x, $y in $a/y
x3 $a by $x (LND), $y (LND) return COUNT($a)`)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := Advise(q, `
<!ELEMENT root (r*)><!ELEMENT r (x*, y*)>
<!ELEMENT x (#PCDATA)><!ELEMENT y (#PCDATA)>`)
	if err != nil {
		t.Fatal(err)
	}
	if adv.SparseAlgorithm != "BUC" || adv.DenseAlgorithm != "COUNTER" {
		t.Errorf("pessimistic recommendation = %s/%s", adv.SparseAlgorithm, adv.DenseAlgorithm)
	}
}

func TestAdviseDisjointOnly(t *testing.T) {
	q, err := ParseQuery(`
for $a in doc("d")//r, $x in $a/x
x3 $a by $x (LND) return COUNT($a)`)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := Advise(q, `
<!ELEMENT root (r*)><!ELEMENT r (x?)><!ELEMENT x (#PCDATA)>`)
	if err != nil {
		t.Fatal(err)
	}
	if adv.SparseAlgorithm != "BUCOPT" || adv.DenseAlgorithm != "COUNTER" {
		t.Errorf("disjoint-only recommendation = %s/%s", adv.SparseAlgorithm, adv.DenseAlgorithm)
	}
}

func TestAdviseErrors(t *testing.T) {
	q, err := ParseQuery(dblpQueryText)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Advise(q, "garbage"); err == nil {
		t.Error("garbage DTD accepted")
	}
	if _, err := Advise(q, `<!ELEMENT other (#PCDATA)>`); err == nil {
		t.Error("DTD without the fact element accepted")
	}
}

func TestLatticeSketch(t *testing.T) {
	q, err := ParseQuery(query1)
	if err != nil {
		t.Fatal(err)
	}
	s := q.LatticeSketch()
	if got := strings.Count(s, "publication ($b)"); got != 16 {
		t.Errorf("sketch shows %d cuboids, want 16", got)
	}
	for _, want := range []string{"$n:rigid", "$n:SP", "$y:LND", "//name"} {
		if !strings.Contains(s, want) {
			t.Errorf("sketch missing %q", want)
		}
	}
}

func TestEstimate(t *testing.T) {
	db, err := LoadXMLString(paperXML)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(query1)
	if err != nil {
		t.Fatal(err)
	}
	est, err := db.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	if est.Facts != 4 || est.Cuboids != 16 {
		t.Fatalf("estimate = %+v", est)
	}
	if est.EstimatedCells <= 0 || est.TopCuboidCells <= 0 {
		t.Fatalf("cells estimate = %+v", est)
	}
	// Four heterogeneous facts make a sparse micro-cube.
	if est.Dense {
		t.Errorf("paper example classified dense: %+v", est)
	}
	// The estimate is in the ballpark of the real cube (57 cells).
	res, err := db.Cube(q)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(est.EstimatedCells) / float64(res.TotalCells())
	if ratio < 0.2 || ratio > 5 {
		t.Errorf("estimated %d cells, real %d", est.EstimatedCells, res.TotalCells())
	}
}

func TestSuggestViews(t *testing.T) {
	db, err := LoadXMLString(paperXML)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(query1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Cube(q)
	if err != nil {
		t.Fatal(err)
	}
	const dtd = `
<!ELEMENT database (publication*)>
<!ELEMENT publication (author*, authors?, publisher?, year*, pubData?)>
<!ELEMENT authors (author+)>
<!ELEMENT author (name)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT publisher EMPTY>
<!ELEMENT year (#PCDATA)>
<!ELEMENT pubData (publisher, year)>
<!ATTLIST publication id ID #REQUIRED>
<!ATTLIST author id ID #REQUIRED>
<!ATTLIST publisher id ID #REQUIRED>`
	sugs, err := res.SuggestViews(3, dtd)
	if err != nil {
		t.Fatal(err)
	}
	if len(sugs) == 0 {
		t.Fatal("no suggestions")
	}
	for i, s := range sugs {
		if s.Size <= 0 || s.Benefit <= 0 || s.Cuboid == "" {
			t.Errorf("bad suggestion %+v", s)
		}
		if i > 0 && s.Benefit > sugs[i-1].Benefit {
			t.Errorf("benefit grew from pick %d to %d: %+v", i, i+1, sugs)
		}
	}
	// Without a DTD it still works (self-serving views only).
	sugs, err = res.SuggestViews(2, "")
	if err != nil || len(sugs) == 0 {
		t.Fatalf("no-DTD suggestions: %v, %v", sugs, err)
	}
	if _, err := res.SuggestViews(0, ""); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := res.SuggestViews(1, "garbage"); err == nil {
		t.Error("garbage DTD accepted")
	}
}

func TestIcebergThroughFacade(t *testing.T) {
	db, err := LoadXMLString(paperXML)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(`
for $b in doc("book.xml")//publication,
    $n in $b/author/name, $y in $b/year
x^3 $b/@id by $n (LND, SP, PC-AD), $y (LND)
return COUNT($b) having COUNT($b) >= 2`)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"COUNTER", "BUC", "TD"} {
		res, err := db.Cube(q, WithAlgorithm(alg))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		// Only groups with >= 2 publications survive: 2003 (2), John at
		// SP (2), and the coarser aggregates.
		c, err := res.Cuboid(map[string]string{"$y": "rigid"})
		if err != nil {
			t.Fatal(err)
		}
		if c.Size() != 1 {
			t.Errorf("%s: iceberg year cuboid size = %d, want 1", alg, c.Size())
		}
		if v, ok := c.Get("2003"); !ok || v != 2 {
			t.Errorf("%s: 2003 = %v, %v", alg, v, ok)
		}
		if _, ok := c.Get("2004"); ok {
			t.Errorf("%s: below-threshold group survived", alg)
		}
	}
}
