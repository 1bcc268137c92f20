package matchfile

import (
	"os"
	"path/filepath"
	"testing"

	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/xmltree"
	"x3/internal/xq"
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

const query1Text = `
for $b in doc("book.xml")//publication,
    $n in $b/author/name,
    $p in $b//publisher/@id,
    $y in $b/year
X^3 $b/@id by $n (LND, SP, PC-AD), $p (LND, PC-AD), $y (LND)
return COUNT($b).`

func buildSet(t testing.TB) *match.Set {
	t.Helper()
	doc, err := xmltree.ParseString(paperXML)
	if err != nil {
		t.Fatal(err)
	}
	q, err := xq.Parse(query1Text)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := lattice.New(q)
	if err != nil {
		t.Fatal(err)
	}
	set, err := match.Evaluate(doc, lat)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestRoundTrip(t *testing.T) {
	set := buildSet(t)
	path := filepath.Join(t.TempDir(), "m.x3mf")
	if err := WriteFile(path, set); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumFacts() != set.NumFacts() {
		t.Fatalf("NumFacts = %d, want %d", r.NumFacts(), set.NumFacts())
	}
	for a := range set.Dicts {
		if r.LiveStates(a) != set.LiveStates(a) {
			t.Errorf("axis %d live states = %d, want %d", a, r.LiveStates(a), set.LiveStates(a))
		}
		if r.Dicts()[a].Len() != set.Dicts[a].Len() {
			t.Errorf("axis %d dict len = %d, want %d", a, r.Dicts()[a].Len(), set.Dicts[a].Len())
		}
		for i := 0; i < set.Dicts[a].Len(); i++ {
			if r.Dicts()[a].Value(match.ValueID(i)) != set.Dicts[a].Value(match.ValueID(i)) {
				t.Errorf("axis %d value %d differs", a, i)
			}
		}
	}
	i := 0
	err = r.Each(func(f *match.Fact) error {
		want := set.Facts[i]
		if f.ID != want.ID || f.Key != want.Key || f.Measure != want.Measure {
			t.Errorf("fact %d header: %+v vs %+v", i, f, want)
		}
		for a := range want.Axes {
			for s := range want.Axes[a] {
				got, exp := f.Axes[a][s], want.Axes[a][s]
				if len(got) != len(exp) {
					t.Fatalf("fact %d axis %d state %d: %v vs %v", i, a, s, got, exp)
				}
				for k := range exp {
					if got[k] != exp[k] {
						t.Fatalf("fact %d axis %d state %d: %v vs %v", i, a, s, got, exp)
					}
				}
			}
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != set.NumFacts() {
		t.Fatalf("streamed %d facts", i)
	}
}

func TestMultiplePassesAccumulateIO(t *testing.T) {
	set := buildSet(t)
	path := filepath.Join(t.TempDir(), "m.x3mf")
	if err := WriteFile(path, set); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	noop := func(*match.Fact) error { return nil }
	if err := r.Each(noop); err != nil {
		t.Fatal(err)
	}
	one := r.BytesRead()
	if one <= 0 {
		t.Fatal("no bytes counted")
	}
	if err := r.Each(noop); err != nil {
		t.Fatal(err)
	}
	if r.BytesRead() != 2*one {
		t.Errorf("two passes read %d, want %d", r.BytesRead(), 2*one)
	}
}

func TestOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("not a match file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated header.
	trunc := filepath.Join(dir, "trunc")
	if err := os.WriteFile(trunc, []byte("X3M"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(trunc); err == nil {
		t.Error("truncated file accepted")
	}
	// Wrong version.
	wv := filepath.Join(dir, "wv")
	if err := os.WriteFile(wv, []byte{'X', '3', 'M', 'F', 99, 1}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(wv); err == nil {
		t.Error("wrong version accepted")
	}
}

func TestTruncatedBody(t *testing.T) {
	set := buildSet(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "m.x3mf")
	if err := WriteFile(path, set); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.x3mf")
	if err := os.WriteFile(cut, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(cut)
	if err != nil {
		t.Fatal(err) // header is intact
	}
	if err := r.Each(func(*match.Fact) error { return nil }); err == nil {
		t.Error("truncated body streamed without error")
	}
}

func TestCallbackErrorPropagates(t *testing.T) {
	set := buildSet(t)
	path := filepath.Join(t.TempDir(), "m.x3mf")
	if err := WriteFile(path, set); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	wantErr := os.ErrClosed
	if err := r.Each(func(*match.Fact) error { return wantErr }); err != wantErr {
		t.Errorf("Each err = %v, want %v", err, wantErr)
	}
}
