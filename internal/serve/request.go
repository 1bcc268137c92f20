package serve

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"time"

	"x3/internal/agg"
	"x3/internal/lattice"
	"x3/internal/match"
	"x3/internal/pattern"
)

// Request is the wire-level query form the HTTP server accepts: cuboid
// states and constraint values as strings, resolved against the store's
// lattice and dictionaries.
type Request struct {
	// Cuboid maps axis variables to relaxation-state labels, e.g.
	// {"$n": "rigid", "$y": "LND"}; omitted axes default to their most
	// relaxed state (so an empty map addresses the lattice bottom).
	Cuboid map[string]string `json:"cuboid,omitempty"`
	// Where pins axis variables to grouping values, e.g. {"$n": "smith"}.
	// Pinned axes must be live at the target cuboid.
	Where map[string]string `json:"where,omitempty"`
}

// ResponseRow is one answered cell with decoded group values.
type ResponseRow struct {
	Values []string `json:"values"`
	Value  float64  `json:"value"`
	Count  int64    `json:"count"`
}

// Response is the wire-level answer.
type Response struct {
	Cuboid string        `json:"cuboid"`
	Plan   string        `json:"plan"`
	From   string        `json:"from,omitempty"`
	Rows   []ResponseRow `json:"rows"`
	// Degraded is set when the fast indexed read failed and the answer
	// came from a fallback path (verified re-scan or base recompute).
	Degraded bool `json:"degraded,omitempty"`
	// Partial is set by a sharded coordinator when some fact partitions
	// could not be reached: the rows are correct for the facts that
	// answered but are not the full total. Missing names each lost
	// partition, so a partial answer is never silently incomplete.
	// Single-node stores never set these.
	Partial bool           `json:"partial,omitempty"`
	Missing []MissingShard `json:"missing,omitempty"`
}

// MissingShard identifies one unreachable fact partition of a partial
// sharded answer.
type MissingShard struct {
	Shard int `json:"shard"`
	// KeyRange describes the lost partition as a residue class of the
	// fact partition hash, e.g. "hash(fact)%4==2".
	KeyRange string `json:"key_range"`
	// Reason is the last per-replica failure the coordinator saw.
	Reason string `json:"reason"`
}

// CellRow is one answered cell in store-independent form: decoded group
// values plus the raw mergeable aggregate state. Because agg.State is
// distributive, CellRows from stores over disjoint fact sets re-aggregate
// exactly — this is the currency of cross-shard merging.
type CellRow struct {
	Values []string
	State  agg.State
}

// CellAnswer is an answered request before finalization: rows carry
// states, not finals, so a coordinator can merge answers from several
// stores and finalize once.
type CellAnswer struct {
	Cuboid   string
	Plan     PlanKind
	From     string
	Degraded bool
	Rows     []CellRow
}

// AnswerCells resolves a wire-level request and answers it under ctx in
// mergeable form: decoded group values plus raw aggregate states. It
// resolves, plans, executes and decodes under one hold of the store's
// read lock, so the dictionaries that resolve the pins are the ones that
// decode the rows. A constraint value absent from the dictionaries has
// never been seen, so no group can match it: the request is planned and
// counted like any other and answers no rows. Resolution failures —
// unknown axes, unknown states, constraints on deleted axes — wrap
// ErrBadRequest.
func (s *Store) AnswerCells(ctx context.Context, req Request) (*CellAnswer, error) {
	p, err := s.lat.PointFromStates(req.Cuboid)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	start := time.Now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	where, unseen, err := s.resolveWhere(p, req.Where)
	if err != nil {
		return nil, err
	}
	ans, err := s.answer(ctx, Query{Point: p, Where: where}, unseen, start)
	if err != nil {
		return nil, err
	}
	ca := &CellAnswer{Cuboid: s.lat.Label(p), Plan: ans.Plan, Degraded: ans.Degraded, Rows: s.decodeRows(s.lat.LiveAxes(p), ans.Rows)}
	if ans.From != nil {
		ca.From = s.lat.Label(ans.From)
	}
	return ca, nil
}

// resolveWhere maps a request's pinned values to ValueIDs at point p,
// under a held read lock (dictionaries grow in place under mu). unseen
// reports a value no dictionary holds (no group can match it).
func (s *Store) resolveWhere(p lattice.Point, where map[string]string) (map[int]match.ValueID, bool, error) {
	if len(where) == 0 {
		return nil, false, nil
	}
	dicts := s.base.Dicts
	out := make(map[int]match.ValueID, len(where))
	unseen := false
	// Sorted order, not map order: the first resolution failure is the
	// one the client sees, so it must be the same every run.
	for _, v := range slices.Sorted(maps.Keys(where)) {
		a, err := s.lat.AxisByVar(v)
		if err != nil {
			return nil, false, fmt.Errorf("%w: %w", ErrBadRequest, err)
		}
		if s.lat.Deleted(p, a) {
			return nil, false, fmt.Errorf("%w: axis %s is deleted at %s", ErrBadRequest, v, s.lat.Label(p))
		}
		id, ok := dicts[a].Lookup(where[v])
		if !ok {
			unseen = true
			continue
		}
		out[a] = id
	}
	return out, unseen, nil
}

// decodeRows turns answered rows into decoded values, under the read lock
// the answer was computed under: an append publishes its cells and its
// dictionary values in one critical section, so every cell the answer
// saw decodes.
func (s *Store) decodeRows(live []int, rows []Row) []CellRow {
	dicts := s.base.Dicts
	out := make([]CellRow, len(rows))
	for i, r := range rows {
		vals := make([]string, len(r.Key))
		for j, id := range r.Key {
			vals[j] = dicts[live[j]].Value(id)
		}
		out[i] = CellRow{Values: vals, State: r.State}
	}
	return out
}

// Finalize renders a mergeable answer into the wire-level response form,
// computing each row's final value under aggFn.
func (ca *CellAnswer) Finalize(aggFn pattern.AggFunc) *Response {
	resp := &Response{Cuboid: ca.Cuboid, Plan: ca.Plan.String(), From: ca.From, Degraded: ca.Degraded}
	resp.Rows = make([]ResponseRow, len(ca.Rows))
	for i, r := range ca.Rows {
		resp.Rows[i] = ResponseRow{Values: r.Values, Value: r.State.Final(aggFn), Count: r.State.N}
	}
	return resp
}

// ServeRequest resolves a wire-level request and answers it under ctx.
// It is AnswerCells plus finalization — the single-store serving path.
func (s *Store) ServeRequest(ctx context.Context, req Request) (*Response, error) {
	ca, err := s.AnswerCells(ctx, req)
	if err != nil {
		return nil, err
	}
	return ca.Finalize(s.lat.Query.Agg), nil
}
