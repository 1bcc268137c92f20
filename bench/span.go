package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused this one (0 for a
// request's root). Times are nanoseconds since the recorder started.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. Recording is driven
// by the request: start records only under a context that withRequest
// tagged, so the same wrappers cost nothing on warm-up and on the
// untraced phase the tracing overhead is measured against. A nil
// *Recorder records nothing at all.
type Recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []Span
}

func newRecorder() *Recorder {
	return &Recorder{t0: time.Now(), spans: make([]Span, 0, 1<<18)}
}

type spanKey struct{}

// spanRef is what travels in the context: the request id and the span
// under which the callee's span nests.
type spanRef struct {
	req    int64
	parent int
}

// start opens a span under whatever span ctx carries and returns the
// context callees should see plus the function that closes the span.
func (r *Recorder) start(ctx context.Context, name string) (context.Context, func()) {
	ref, tagged := ctx.Value(spanKey{}).(spanRef)
	if r == nil || !tagged {
		return ctx, func() {}
	}
	begin := time.Since(r.t0)
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: ref.parent, Req: ref.req, Name: name, Start: int64(begin)})
	r.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, spanRef{req: ref.req, parent: id}), func() {
		end := int64(time.Since(r.t0))
		r.mu.Lock()
		r.spans[id-1].End = end
		r.mu.Unlock()
	}
}

// withRequest tags ctx with a request id and the span the next start
// nests under (the client's root span, carried across the wire as a
// header).
func withRequest(ctx context.Context, req int64, parent int) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{req: req, parent: parent})
}

// snapshot copies the completed spans.
func (r *Recorder) snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeTrace dumps the spans as one JSON array.
func writeTrace(path string, spans []Span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its direct children. Children that overlap one
// another (a scatter's parallel legs) are merged first, so the covered
// part is the union of their intervals clipped to the parent — the
// parent's self time is the time it spent with no child running.
func selfTimes(spans []Span) map[int]int64 {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of kids' intervals inside parent.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	end := parent.Start
	for _, v := range ivs {
		if v.b > end {
			total += v.b - max(v.a, end)
			end = v.b
		}
	}
	return total
}
