// Package cube implements the X³ cube computation algorithms of the paper's
// §3 and §4: the counter-based algorithm (COUNTER), the XMLized bottom-up
// family (BUC, BUCOPT, BUCCUST after Beyer–Ramakrishnan) and the XMLized
// top-down family (TD, TDOPT, TDOPTALL, TDCUST after Ross–Srivastava's
// PartitionCube/MemoryCube).
//
// All algorithms consume the same materialized fact table (a Source) and
// emit cells to a Sink. A cell of cuboid p is a group — one grouping value
// per live axis of p — together with the aggregate over the *distinct*
// facts whose axis value sets contain the group's values at p's ladder
// states. A fact with two authors lands in two author groups but counts
// once in each (the paper's non-disjointness semantics, §1); a fact whose
// axis value set is empty at a live state is absent from that cuboid (the
// coverage violation).
//
// The optimized variants (BUCOPT, TDOPT, TDOPTALL) assume summarizability
// properties globally and compute wrong results when the data violates
// them — deliberately, as the paper measures exactly that (§4.3). The
// customized variants (BUCCUST, TDCUST) consult per-axis-state properties
// (schema-inferred, §3.7) and stay correct while exploiting whatever
// summarizability holds locally.
package cube

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"x3/internal/agg"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/mem"
	"x3/internal/obs"
	"x3/internal/pattern"
)

// Null is the sentinel ValueID meaning "axis missing at this state". It
// never collides with a real dictionary ID in any realistic input.
const Null match.ValueID = 0xFFFFFFFF

// Source streams a materialized fact table. match.Set and matchfile.Reader
// implement it. Each may be called multiple times (multi-pass algorithms);
// the *Fact passed to the callback is only valid during the call.
type Source interface {
	NumFacts() int
	Each(func(*match.Fact) error) error
}

// Sink receives cube cells. Cells of one cuboid may arrive interleaved
// with other cuboids' cells, but each (cuboid, group) pair is emitted
// exactly once per run.
type Sink interface {
	Cell(point uint32, key []match.ValueID, s agg.State) error
}

// Input bundles everything an algorithm run needs.
type Input struct {
	Lattice *lattice.Lattice
	Source  Source
	// Dicts are the per-axis dictionaries of the source (used only by
	// result formatting; algorithms work on ValueIDs).
	Dicts []*match.Dict
	// Budget caps the algorithm's working state (counters, partitions,
	// sort buffers, retained intermediate cuboids). nil means unlimited.
	Budget *mem.Budget
	// TmpDir hosts external-sort spill files ("" = OS temp dir).
	TmpDir string
	// Props describes which summarizability properties hold per axis and
	// ladder state; the CUST algorithms require it, the others ignore it.
	// nil means nothing is guaranteed.
	Props Props
	// Reg receives per-run metrics and a phase span under the
	// cube.<algorithm>.* keys. nil disables observability at zero cost.
	Reg *obs.Registry
	// Workers is the fan-out of the parallel algorithms (BUCPAR, TDPAR)
	// and of parallel sort phases; 0 selects GOMAXPROCS. The serial
	// algorithms ignore it.
	Workers int
	// Ctx cancels the run: the algorithms check it at pass, cuboid and
	// partition boundaries (and the worker pool between tasks) and return
	// a wrapped ctx.Err(), so a per-request deadline or a disconnected
	// client actually stops the computation. nil never cancels.
	//x3:nolint(ctxflow) Input is a per-run parameter object (the cube analogue of http.Request); Ctx is not retained past Run
	Ctx context.Context
}

// ctxErr reports a cancelled input as an error wrapping ctx.Err() (so
// errors.Is against context.Canceled / context.DeadlineExceeded holds);
// nil while the run may continue.
func (in *Input) ctxErr() error {
	if in.Ctx == nil {
		return nil
	}
	if err := in.Ctx.Err(); err != nil {
		return fmt.Errorf("cube: cancelled: %w", err)
	}
	return nil
}

// ctxCheckEvery is the granularity of in-loop cancellation checks: tight
// per-fact/per-recursion loops consult the context once per this many
// iterations, keeping the check off the per-cell fast path.
const ctxCheckEvery = 4096

func (in *Input) budget() *mem.Budget {
	if in.Budget == nil {
		in.Budget = mem.Unlimited()
	}
	return in.Budget
}

// agg returns the query's aggregate function.
func (in *Input) agg() pattern.AggFunc { return in.Lattice.Query.Agg }

// minSupport returns the iceberg threshold (1 = full cube).
func (in *Input) minSupport() int64 {
	if m := in.Lattice.Query.MinSupport; m > 1 {
		return m
	}
	return 1
}

// liveStates returns the number of live ladder states of axis a.
func (in *Input) liveStates(a int) int {
	lad := in.Lattice.Ladders[a]
	if lad.HasDeleted() {
		return lad.Len() - 1
	}
	return lad.Len()
}

// Props exposes the summarizability properties of §3.2 per axis and ladder
// state. Implementations are derived from a DTD (package schema) or from
// workload knowledge.
type Props interface {
	// Disjoint reports whether axis a is guaranteed to match at most one
	// value at live state s for every fact (pairwise disjointness of the
	// groups of any cuboid using that state).
	Disjoint(a, s int) bool
	// Covered reports whether axis a is guaranteed to match at least one
	// value at live state s for every fact (total coverage).
	Covered(a, s int) bool
}

// PessimisticProps guarantees nothing; the safe default.
type PessimisticProps struct{}

// Disjoint implements Props; it always reports false.
func (PessimisticProps) Disjoint(_, _ int) bool { return false }

// Covered implements Props; it always reports false.
func (PessimisticProps) Covered(_, _ int) bool { return false }

// AssumeAllProps claims both properties hold everywhere. It is what the
// globally-optimized algorithms effectively assume.
type AssumeAllProps struct{}

// Disjoint implements Props; it always reports true.
func (AssumeAllProps) Disjoint(_, _ int) bool { return true }

// Covered implements Props; it always reports true.
func (AssumeAllProps) Covered(_, _ int) bool { return true }

// Stats describes one algorithm run.
type Stats struct {
	Algorithm string
	// Cells is the number of (cuboid, group) cells emitted.
	Cells int64
	// Passes counts full scans of the fact source.
	Passes int
	// Restarts counts COUNTER restarts after budget exhaustion.
	Restarts int
	// Sorts and ExternalSorts count sort operations and those that
	// spilled; SpillBytes totals run-file bytes written.
	Sorts         int
	ExternalSorts int
	SpillBytes    int64
	RowsSorted    int64
	// Rollups counts cuboids derived by merging a finer cuboid's
	// aggregates; Copies counts cuboids obtained as verbatim copies
	// across a ladder state step (both only in the roll-up algorithms).
	Rollups int
	Copies  int
	// PeakBytes is the budget high-water mark during the run.
	PeakBytes int64
}

// observe opens the run's phase span and returns the finisher that closes
// it and folds the final Stats into the registry under the
// cube.<algorithm>.* keys. Use as `defer in.observe(&st)()` at the top of
// a Run, after st.Algorithm is set. A nil registry makes both halves
// no-ops.
func (in *Input) observe(st *Stats) func() {
	if in.Reg == nil {
		return func() {}
	}
	reg := in.Reg
	// Every key spells out its literal "cube." prefix so the x3lint
	// obskey analyzer can validate the family namespace and the keys stay
	// greppable.
	alg := strings.ToLower(st.Algorithm)
	span := reg.Span("cube." + alg)
	return func() {
		span.SetPeakBytes(st.PeakBytes)
		span.End()
		reg.Counter("cube." + alg + ".runs").Inc()
		reg.Counter("cube." + alg + ".cells").Add(st.Cells)
		reg.Counter("cube." + alg + ".passes").Add(int64(st.Passes))
		reg.Counter("cube." + alg + ".restarts").Add(int64(st.Restarts))
		reg.Counter("cube." + alg + ".sorts").Add(int64(st.Sorts))
		reg.Counter("cube." + alg + ".sorts.external").Add(int64(st.ExternalSorts))
		reg.Counter("cube." + alg + ".spill.bytes").Add(st.SpillBytes)
		reg.Counter("cube." + alg + ".rows.sorted").Add(st.RowsSorted)
		reg.Counter("cube." + alg + ".rollups").Add(int64(st.Rollups))
		reg.Counter("cube." + alg + ".copies").Add(int64(st.Copies))
		reg.Gauge("cube." + alg + ".peak_bytes").SetMax(st.PeakBytes)
	}
}

// Requirements documents the summarizability preconditions an algorithm
// needs for correct results.
type Requirements struct {
	Disjointness bool
	Coverage     bool
}

// Algorithm is one cube computation strategy.
type Algorithm interface {
	Name() string
	Requires() Requirements
	Run(in *Input, sink Sink) (Stats, error)
}

// Algorithms returns the registry of all implemented algorithms keyed by
// their paper names.
func Algorithms() map[string]Algorithm {
	return map[string]Algorithm{
		"COUNTER":  Counter{},
		"BUC":      BUC{},
		"BUCOPT":   BUC{Opt: true},
		"BUCCUST":  BUC{Cust: true},
		"BUCPAR":   BUCParallel{},
		"TD":       TD{},
		"TDOPT":    TD{Mode: TDModeOpt},
		"TDOPTALL": TD{Mode: TDModeOptAll},
		"TDCUST":   TD{Mode: TDModeCust},
		"TDPAR":    TDParallel{},
	}
}

// ByName returns the named algorithm.
func ByName(name string) (Algorithm, error) {
	if a, ok := Algorithms()[name]; ok {
		return a, nil
	}
	return nil, fmt.Errorf("cube: unknown algorithm %q", name)
}

// Names returns the algorithm names, sorted.
func Names() []string {
	m := Algorithms()
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// packKey encodes a group key (values of the live axes, in axis order) as
// big-endian bytes, so byte order equals value order.
func packKey(dst []byte, vals []match.ValueID) []byte {
	for _, v := range vals {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(v))
		dst = append(dst, b[:]...)
	}
	return dst
}

// unpackKey decodes a key packed by packKey.
func unpackKey(b []byte) []match.ValueID {
	out := make([]match.ValueID, 0, len(b)/4)
	for i := 0; i+4 <= len(b); i += 4 {
		out = append(out, match.ValueID(binary.BigEndian.Uint32(b[i:])))
	}
	return out
}

// Result collects all cells in memory; it implements Sink and is the
// convenient form for tests, examples and small cubes.
type Result struct {
	Lattice *lattice.Lattice
	Dicts   []*match.Dict
	// Cuboids maps lattice point ID to its cells, keyed by packed group
	// key.
	Cuboids map[uint32]map[string]agg.State
	Cells   int64
	// keyBuf is reused across Cell calls so the duplicate probe packs the
	// key without allocating; only a genuinely new cell materializes it.
	keyBuf []byte
}

// NewResult returns an empty result collector for the lattice.
func NewResult(lat *lattice.Lattice, dicts []*match.Dict) *Result {
	return &Result{Lattice: lat, Dicts: dicts, Cuboids: make(map[uint32]map[string]agg.State)}
}

// Cell implements Sink.
func (r *Result) Cell(point uint32, key []match.ValueID, s agg.State) error {
	m, ok := r.Cuboids[point]
	if !ok {
		m = make(map[string]agg.State)
		r.Cuboids[point] = m
	}
	r.keyBuf = packKey(r.keyBuf[:0], key)
	if _, dup := m[string(r.keyBuf)]; dup { // compiler elides this conversion
		return fmt.Errorf("cube: duplicate cell for point %d key %v", point, key)
	}
	m[string(r.keyBuf)] = s
	r.Cells++
	return nil
}

// Get returns the final aggregate of the group identified by the given
// value strings (one per live axis of p, in axis order).
func (r *Result) Get(p lattice.Point, values ...string) (float64, bool) {
	id := r.Lattice.ID(p)
	m, ok := r.Cuboids[id]
	if !ok {
		return 0, false
	}
	live := r.Lattice.LiveAxes(p)
	if len(values) != len(live) {
		return 0, false
	}
	key := make([]match.ValueID, len(values))
	for i, v := range values {
		vid, ok := r.Dicts[live[i]].Lookup(v)
		if !ok {
			return 0, false
		}
		key[i] = vid
	}
	s, ok := m[string(packKey(nil, key))]
	if !ok {
		return 0, false
	}
	return s.Final(r.Lattice.Query.Agg), true
}

// State returns the aggregate state of the group of cuboid p with the
// given dictionary-encoded key.
func (r *Result) State(p lattice.Point, key []match.ValueID) (agg.State, bool) {
	m, ok := r.Cuboids[r.Lattice.ID(p)]
	if !ok {
		return agg.State{}, false
	}
	s, ok := m[string(packKey(nil, key))]
	return s, ok
}

// CuboidSize returns the number of groups of cuboid p.
func (r *Result) CuboidSize(p lattice.Point) int {
	return len(r.Cuboids[r.Lattice.ID(p)])
}

// Keys returns the unpacked group keys of cuboid p in deterministic
// (byte-sorted) order.
func (r *Result) Keys(p lattice.Point) [][]match.ValueID {
	m := r.Cuboids[r.Lattice.ID(p)]
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	out := make([][]match.ValueID, len(ks))
	for i, k := range ks {
		out[i] = unpackKey([]byte(k))
	}
	return out
}

// CountingSink discards cells and counts them; the benchmark harness uses
// it so huge cubes don't accumulate in memory.
type CountingSink struct {
	Cells int64
}

// Cell implements Sink.
func (c *CountingSink) Cell(uint32, []match.ValueID, agg.State) error {
	c.Cells++
	return nil
}
