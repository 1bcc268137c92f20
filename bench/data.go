package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"x3/internal/cube"
	"x3/internal/dataset"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/pattern"
	"x3/internal/serve"
	"x3/internal/xmltree"
)

// corpus is the one dataset every serving workload shares: the §4.5 DBLP
// query (4 axes, 16 cuboids; author is repeated and sometimes missing,
// so roll-ups across $au are unsafe) over a seeded synthetic corpus.
type corpus struct {
	cfg dataset.DBLPConfig
	doc *xmltree.Document
	lat *lattice.Lattice
	// xmlPath and queryPath are what the child x3serve is pointed at.
	xmlPath, queryPath string
}

// genCorpus generates the corpus for seed and writes the files x3serve
// reads into dir. This is the part of set-up a user would also pay:
// having the document on disk.
func genCorpus(dir string, articles int, seed int64) (*corpus, error) {
	cfg := dataset.DefaultDBLPConfig(articles, seed)
	c := &corpus{
		cfg:       cfg,
		doc:       dataset.DBLP(cfg),
		xmlPath:   filepath.Join(dir, "dblp.xml"),
		queryPath: filepath.Join(dir, "query.xq"),
	}
	var err error
	if c.lat, err = lattice.New(dataset.DBLPQuery()); err != nil {
		return nil, err
	}
	f, err := os.Create(c.xmlPath)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := c.doc.Write(w); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return c, os.WriteFile(c.queryPath, []byte(queryText(dataset.DBLPQuery())), 0o644)
}

// queryText renders a CubeQuery in the X³ surface syntax x3serve parses.
func queryText(q *pattern.CubeQuery) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "for %s in doc(%q)%s", q.FactVar, q.Doc, q.FactPath)
	for _, a := range q.Axes {
		fmt.Fprintf(&sb, ",\n    %s in %s%s", a.Var, q.FactVar, a.Path)
	}
	fmt.Fprintf(&sb, "\nx^3 %s%s by", q.FactVar, q.FactIDPath)
	for i, a := range q.Axes {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, " %s %s", a.Var, a.Relax)
	}
	fmt.Fprintf(&sb, "\nreturn %v(%s).\n", q.Agg, q.FactVar)
	return sb.String()
}

// evaluate runs the match phase over the corpus with fresh dictionaries:
// the fact table both the oracle and the traced in-process stack build
// from.
func (c *corpus) evaluate() (*match.Set, error) {
	dicts := make([]*match.Dict, c.lat.NumAxes())
	for i := range dicts {
		dicts[i] = match.NewDict()
	}
	return match.EvaluateWith(c.doc, c.lat, dicts)
}

// oracle is the reference the served answers are compared against: an
// in-process COUNTER cube over the corpus plus every acknowledged append.
type oracle struct {
	lat *lattice.Lattice
	set *match.Set
	res *cube.Result
	// cuboids caches decoded cuboids by point id; the oracle is used from
	// one goroutine.
	cuboids map[uint32]*cuboidRows
}

// newOracle evaluates the corpus, folds the acknowledged append bodies in
// (same dictionaries, so value ids stay consistent) and cubes the union
// with COUNTER.
func newOracle(c *corpus, appended [][]byte) (*oracle, error) {
	set, err := c.evaluate()
	if err != nil {
		return nil, err
	}
	for _, body := range appended {
		doc, err := xmltree.Parse(bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		delta, err := match.EvaluateWith(doc, c.lat, set.Dicts)
		if err != nil {
			return nil, err
		}
		set.Facts = append(set.Facts, delta.Facts...)
	}
	alg, err := cube.ByName("COUNTER")
	if err != nil {
		return nil, err
	}
	res := cube.NewResult(c.lat, set.Dicts)
	in := &cube.Input{Lattice: c.lat, Source: set, Dicts: set.Dicts}
	if _, err := alg.Run(in, res); err != nil {
		return nil, err
	}
	return &oracle{lat: c.lat, set: set, res: res}, nil
}

// point resolves a wire-level cuboid (axis variable → state label,
// omitted axes most relaxed) to a lattice point.
func (o *oracle) point(states map[string]string) (lattice.Point, error) {
	p := o.lat.Bottom()
	for a, lad := range o.lat.Ladders {
		want, ok := states[lad.Spec.Var]
		if !ok {
			continue
		}
		found := false
		for si, st := range lad.States {
			if strings.EqualFold(st.Label, want) {
				p[a], found = uint8(si), true
			}
		}
		if !found {
			return nil, fmt.Errorf("oracle: axis %s has no state %q", lad.Spec.Var, want)
		}
	}
	return p, nil
}

// cuboidRows is one cuboid of the oracle in decoded form, indexed by
// (live-axis position, value) so a constrained query touches only the
// rows that can match.
type cuboidRows struct {
	vals  [][]string
	canon []string
	// by[i][v] lists the rows whose i-th live axis has value v.
	by []map[string][]int
}

// cuboid decodes point p's cells once and caches them.
func (o *oracle) cuboid(p lattice.Point) *cuboidRows {
	id := o.lat.ID(p)
	if c, ok := o.cuboids[id]; ok {
		return c
	}
	live := o.lat.LiveAxes(p)
	c := &cuboidRows{by: make([]map[string][]int, len(live))}
	for i := range c.by {
		c.by[i] = map[string][]int{}
	}
	for _, key := range o.res.Keys(p) {
		vals := make([]string, len(live))
		for i, vid := range key {
			vals[i] = o.set.Dicts[live[i]].Value(vid)
			c.by[i][vals[i]] = append(c.by[i][vals[i]], len(c.vals))
		}
		st, _ := o.res.State(p, key)
		c.vals = append(c.vals, vals)
		c.canon = append(c.canon, canonRow(vals, st.Final(o.lat.Query.Agg), st.N))
	}
	if o.cuboids == nil {
		o.cuboids = map[uint32]*cuboidRows{}
	}
	o.cuboids[id] = c
	return c
}

// rows returns the expected answer to req as "v1\x1fv2…\x1e<value>\x1e<count>"
// lines sorted lexically — the canonical form served answers are reduced
// to as well, since a single store orders rows by value id and a
// coordinator by decoded string.
func (o *oracle) rows(req serve.Request) ([]string, error) {
	p, err := o.point(req.Cuboid)
	if err != nil {
		return nil, err
	}
	c := o.cuboid(p)
	live := o.lat.LiveAxes(p)
	cand := -1 // the constrained position with the shortest candidate list
	for i, a := range live {
		if w, ok := req.Where[o.lat.Ladders[a].Spec.Var]; ok {
			if cand < 0 || len(c.by[i][w]) < len(c.by[cand][req.Where[o.lat.Ladders[live[cand]].Spec.Var]]) {
				cand = i
			}
		}
	}
	var out []string
	if cand < 0 {
		out = append(out, c.canon...)
	} else {
	next:
		for _, ri := range c.by[cand][req.Where[o.lat.Ladders[live[cand]].Spec.Var]] {
			for i, a := range live {
				if w, ok := req.Where[o.lat.Ladders[a].Spec.Var]; ok && c.vals[ri][i] != w {
					continue next
				}
			}
			out = append(out, c.canon[ri])
		}
	}
	sort.Strings(out)
	return out, nil
}

func canonRow(vals []string, value float64, count int64) string {
	return fmt.Sprintf("%s\x1e%g\x1e%d", strings.Join(vals, "\x1f"), value, count)
}

// check compares one served answer with the oracle, row for row. A
// degraded or partial answer is a failure: none is expected.
func (o *oracle) check(req serve.Request, resp *serve.Response) error {
	if resp.Degraded || resp.Partial {
		return fmt.Errorf("answer for %v is degraded=%v partial=%v", req, resp.Degraded, resp.Partial)
	}
	want, err := o.rows(req)
	if err != nil {
		return err
	}
	got := make([]string, len(resp.Rows))
	for i, r := range resp.Rows {
		got[i] = canonRow(r.Values, r.Value, r.Count)
	}
	sort.Strings(got)
	if len(got) != len(want) {
		return fmt.Errorf("answer for %v has %d rows, oracle %d", req, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("answer for %v row %d: got %q, oracle %q", req, i, got[i], want[i])
		}
	}
	return nil
}
