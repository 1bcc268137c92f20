package x3

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

const paperXML = `
<database>
  <publication id="1">
    <author id="a1"><name>John</name></author>
    <author id="a2"><name>Jane</name></author>
    <publisher id="p1"/>
    <year>2003</year>
  </publication>
  <publication id="2">
    <author id="a3"><name>Bob</name></author>
    <publisher id="p1"/>
    <year>2004</year>
    <year>2005</year>
  </publication>
  <publication id="3">
    <authors><author id="a1"><name>John</name></author></authors>
    <year>2003</year>
  </publication>
  <publication id="4">
    <author id="a4"><name>Amy</name></author>
    <pubData><publisher id="p2"/><year>2005</year></pubData>
  </publication>
</database>`

const query1 = `
for $b in doc("book.xml")//publication,
    $n in $b/author/name,
    $p in $b//publisher/@id,
    $y in $b/year
X^3 $b/@id by $n (LND, SP, PC-AD), $p (LND, PC-AD), $y (LND)
return COUNT($b).`

func loadPaper(t *testing.T) (*Database, *Query) {
	t.Helper()
	db, err := LoadXMLString(paperXML)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(query1)
	if err != nil {
		t.Fatal(err)
	}
	return db, q
}

func TestQueryIntrospection(t *testing.T) {
	_, q := loadPaper(t)
	if q.NumAxes() != 3 || q.NumCuboids() != 16 {
		t.Fatalf("axes=%d cuboids=%d", q.NumAxes(), q.NumCuboids())
	}
	if got := q.AxisVars(); strings.Join(got, " ") != "$n $p $y" {
		t.Fatalf("AxisVars = %v", got)
	}
	lad, err := q.Ladder("$n")
	if err != nil || strings.Join(lad, ">") != "rigid>PC-AD>SP>LND" {
		t.Fatalf("Ladder($n) = %v, %v", lad, err)
	}
	if _, err := q.Ladder("$zz"); err == nil {
		t.Error("Ladder of unknown axis accepted")
	}
	if !strings.Contains(q.MostRelaxedPattern(), "//name*") {
		t.Errorf("MostRelaxedPattern:\n%s", q.MostRelaxedPattern())
	}
	if !strings.Contains(q.RigidPattern(), "/author") {
		t.Errorf("RigidPattern:\n%s", q.RigidPattern())
	}
	if !strings.Contains(q.String(), "COUNT") {
		t.Errorf("String: %s", q.String())
	}
}

func TestCubePaperNumbers(t *testing.T) {
	db, q := loadPaper(t)
	res, err := db.Cube(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumFacts() != 4 {
		t.Fatalf("facts = %d", res.NumFacts())
	}
	// Year-only cuboid.
	c, err := res.Cuboid(map[string]string{"$y": "rigid"})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Get("2003"); !ok || v != 2 {
		t.Errorf("year 2003 = %v, %v", v, ok)
	}
	rows := c.Rows()
	if len(rows) != 3 {
		t.Fatalf("year cuboid rows = %v", rows)
	}
	// Rows are sorted by value.
	if rows[0].Values[0] != "2003" || rows[2].Values[0] != "2005" {
		t.Errorf("rows order: %v", rows)
	}
	// SP state finds the nested author of publication 3.
	c, err = res.Cuboid(map[string]string{"$n": "SP"})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Get("John"); !ok || v != 2 {
		t.Errorf("SP John = %v, %v", v, ok)
	}
	// The all-relaxed cuboid has the grand total.
	c, err = res.Cuboid(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Get(); !ok || v != 4 {
		t.Errorf("grand total = %v, %v", v, ok)
	}
	if c.Size() != 1 {
		t.Errorf("bottom size = %d", c.Size())
	}
	if !strings.Contains(c.Label(), "LND") {
		t.Errorf("label = %s", c.Label())
	}
	if !strings.Contains((&strings.Builder{}).String()+c.Pattern(), "publication") {
		t.Errorf("pattern:\n%s", c.Pattern())
	}
}

func TestCuboidErrors(t *testing.T) {
	db, q := loadPaper(t)
	res, err := db.Cube(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Cuboid(map[string]string{"$n": "sideways"}); err == nil {
		t.Error("bad state label accepted")
	}
	if _, err := res.Cuboid(map[string]string{"$zz": "rigid"}); err == nil {
		t.Error("unknown axis accepted")
	}
	// Two unknown axes: every call reports the same one, whatever the
	// map's iteration order.
	for range 50 {
		_, err := res.Cuboid(map[string]string{"$zz": "rigid", "$aa": "rigid"})
		if err == nil || !strings.Contains(err.Error(), `"$aa"`) {
			t.Fatalf("two unknown axes: %v, want $aa reported", err)
		}
	}
}

func TestAllAlgorithmsAgreeViaFacade(t *testing.T) {
	db, q := loadPaper(t)
	want, err := db.Cube(q) // COUNTER
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"BUC", "BUCCUST", "TD", "TDCUST"} {
		got, err := db.Cube(q, WithAlgorithm(alg))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if got.TotalCells() != want.TotalCells() {
			t.Errorf("%s cells = %d, want %d", alg, got.TotalCells(), want.TotalCells())
		}
		c1, _ := want.Cuboid(map[string]string{"$y": "rigid"})
		c2, _ := got.Cuboid(map[string]string{"$y": "rigid"})
		for _, row := range c1.Rows() {
			if v, ok := c2.Get(row.Values...); !ok || v != row.Value {
				t.Errorf("%s year %v = %v, want %v", alg, row.Values, v, row.Value)
			}
		}
	}
	if _, err := db.Cube(q, WithAlgorithm("NOPE")); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestCubeWithDTDDrivenCust(t *testing.T) {
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
	db, q := loadPaper(t)
	want, err := db.Cube(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Cube(q, WithAlgorithm("TDCUST"), WithDTD(dtd))
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalCells() != want.TotalCells() {
		t.Errorf("TDCUST with DTD cells = %d, want %d", got.TotalCells(), want.TotalCells())
	}
	if _, err := db.Cube(q, WithDTD("not a dtd")); err == nil {
		t.Error("garbage DTD accepted")
	}
}

func TestCubeOverStore(t *testing.T) {
	db, q := loadPaper(t)
	path := filepath.Join(t.TempDir(), "pub.x3st")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	sdb, err := OpenStore(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	if sdb.NumNodes() != db.NumNodes() {
		t.Fatalf("store nodes %d vs %d", sdb.NumNodes(), db.NumNodes())
	}
	want, err := db.Cube(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sdb.Cube(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalCells() != want.TotalCells() {
		t.Errorf("store-backed cube cells = %d, want %d", got.TotalCells(), want.TotalCells())
	}
	c, _ := got.Cuboid(map[string]string{"$y": "rigid"})
	if v, ok := c.Get("2003"); !ok || v != 2 {
		t.Errorf("store-backed 2003 = %v, %v", v, ok)
	}
	// Save from a store-backed database is rejected.
	if err := sdb.Save(filepath.Join(t.TempDir(), "x")); err == nil {
		t.Error("Save from store accepted")
	}
}

func TestWriteCSV(t *testing.T) {
	db, q := loadPaper(t)
	res, err := db.Cube(q)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "cuboid,n,p,y,value") {
		t.Errorf("csv header: %s", strings.SplitN(out, "\n", 2)[0])
	}
	if !strings.Contains(out, "2003") || !strings.Contains(out, "John") {
		t.Errorf("csv missing values")
	}
	lines := strings.Count(out, "\n")
	if int64(lines-1) != res.TotalCells() {
		t.Errorf("csv lines = %d, cells = %d", lines-1, res.TotalCells())
	}
}

func TestCuboidsAndEach(t *testing.T) {
	db, q := loadPaper(t)
	res, err := db.Cube(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Cuboids()); got != 16 {
		t.Fatalf("Cuboids = %d", got)
	}
	n := 0
	err = res.EachCuboid(func(c *Cuboid) error { n++; return nil })
	if err != nil || n != 16 {
		t.Fatalf("EachCuboid visited %d, err %v", n, err)
	}
}

func TestMemoryBudgetOption(t *testing.T) {
	db, q := loadPaper(t)
	res, err := db.Cube(q, WithMemoryBudget(1<<20), WithTempDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats().PeakBytes == 0 {
		t.Error("budgeted run recorded no peak memory")
	}
	if len(Algorithms()) != 10 {
		t.Errorf("Algorithms() = %v", Algorithms())
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := LoadXMLString("<a><b></a>"); err == nil {
		t.Error("bad XML accepted")
	}
	if _, err := LoadXMLFile("/nonexistent/x.xml"); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := ParseQuery("not a query"); err == nil {
		t.Error("bad query accepted")
	}
	if _, err := OpenStore("/nonexistent/s.x3st", 0); err == nil {
		t.Error("missing store accepted")
	}
}
