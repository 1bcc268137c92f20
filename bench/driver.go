package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"x3/internal/serve"
)

// Headers the traced run uses to carry a request's identity across the
// wire, so the handler's span nests under the client's.
const (
	reqIDHeader  = "X3-Request-Id"
	parentHeader = "X3-Bench-Parent"
)

// sample is one completed operation as its client saw it.
type sample struct {
	append bool
	// done is the completion time since the measured interval began.
	done time.Duration
	lat  time.Duration
}

// loadResult is one closed-loop phase.
type loadResult struct {
	samples []sample // completion order within each client, clients concatenated
	failed  int
	// firstErr describes the first failed operation, for the report.
	firstErr string
	elapsed  time.Duration
	// busy is the summed time clients spent waiting on the server; the
	// rest of clients×elapsed is the generator's own overhead.
	busy time.Duration
	// acked are the append bodies the server acknowledged, in order.
	acked [][]byte
}

// newHTTPClient returns the one client a run uses: a transport capped at
// `clients` connections, so the generator can never have more requests in
// flight than it has closed-loop clients.
func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        clients,
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
		},
		Timeout: 60 * time.Second,
	}
}

// doOp issues one pre-marshalled operation and reads the whole reply. An
// operation fails when it is refused, errors, or is answered degraded or
// partial (none is expected on these workloads).
func doOp(ctx context.Context, hc *http.Client, base string, o *op, rec *Recorder, reqID int64) ([]byte, error) {
	path, ctype := "/query", "application/json"
	if o.append {
		path, ctype = "/append", "application/xml"
	}
	if rec != nil {
		ctx = withRequest(ctx, reqID, 0)
	}
	ctx, end := rec.start(ctx, "client."+path[1:])
	defer end()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(o.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ctype)
	if rec != nil {
		ref, _ := ctx.Value(spanKey{}).(spanRef)
		req.Header.Set(reqIDHeader, strconv.FormatInt(reqID, 10))
		req.Header.Set(parentHeader, strconv.Itoa(ref.parent))
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if !o.append && (bytes.Contains(body, []byte(`"degraded":true`)) || bytes.Contains(body, []byte(`"partial":true`))) {
		return nil, fmt.Errorf("%s: degraded or partial answer", path)
	}
	return body, nil
}

// runLoad drives the streams closed-loop — each client sends its next
// operation only after the previous reply is fully read — for warmup
// (discarded) and then measure. Operations in flight when the interval
// ends are completed and counted, never cancelled, so every append sent
// is either acknowledged or failed. An append client starts skipAppends
// operations into its stream, so a second phase on the same store never
// repeats a fact the first one appended.
func runLoad(ctx context.Context, base string, st streams, skipAppends int, warmup, measure time.Duration, rec *Recorder) loadResult {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	type clientOut struct {
		samples []sample
		acked   [][]byte
		failed  int
		err     string
		busy    time.Duration
	}
	outs := make([]clientOut, len(st.perClient))
	start := time.Now()
	measureFrom := start.Add(warmup)
	deadline := measureFrom.Add(measure)
	var wg sync.WaitGroup
	for c := range st.perClient {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := &outs[c]
			ops := st.perClient[c]
			out.samples = make([]sample, 0, 1<<16)
			first := 0
			if ops[0].append {
				first = skipAppends
			}
			for i := first; ; i++ {
				o := &ops[i%len(ops)]
				if o.append && i >= len(ops) {
					return // append streams never wrap: a repeated body would repeat a fact
				}
				t0 := time.Now()
				if !t0.Before(deadline) || ctx.Err() != nil {
					return
				}
				measured := !t0.Before(measureFrom)
				var r *Recorder
				if measured {
					r = rec
				}
				_, err := doOp(ctx, hc, base, o, r, int64(c)<<32|int64(i))
				lat := time.Since(t0)
				if err != nil {
					out.failed++
					if out.err == "" {
						out.err = err.Error()
					}
					continue
				}
				if o.append {
					out.acked = append(out.acked, o.body)
				}
				if measured {
					out.busy += lat
					out.samples = append(out.samples, sample{append: o.append, done: t0.Add(lat).Sub(measureFrom), lat: lat})
				}
			}
		}()
	}
	wg.Wait()
	res := loadResult{elapsed: time.Since(measureFrom)}
	if res.elapsed < measure {
		res.elapsed = measure
	}
	for _, o := range outs {
		res.samples = append(res.samples, o.samples...)
		res.acked = append(res.acked, o.acked...)
		res.failed += o.failed
		res.busy += o.busy
		if res.firstErr == "" {
			res.firstErr = o.err
		}
	}
	return res
}

// latencies returns the latencies in ms of the samples that satisfy keep,
// ordered by completion time so consecutive windows are windows of time.
func latencies(samples []sample, keep func(sample) bool) []float64 {
	kept := make([]sample, 0, len(samples))
	for _, s := range samples {
		if keep(s) {
			kept = append(kept, s)
		}
	}
	// Each client's samples are already in completion order; merge by time.
	sort.Slice(kept, func(i, j int) bool { return kept[i].done < kept[j].done })
	out := make([]float64, len(kept))
	for i, s := range kept {
		out[i] = float64(s.lat) / float64(time.Millisecond)
	}
	return out
}

// query sends one request outside the timed loop and decodes the answer.
func query(ctx context.Context, hc *http.Client, base string, req serve.Request) (*serve.Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	raw, err := doOp(ctx, hc, base, &op{body: body, req: req}, nil, 0)
	if err != nil {
		return nil, err
	}
	var resp serve.Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// verify sends every request once, checks each answer row for row
// against the oracle, and records the outcome in res under the label
// what. It returns the decoded answers that were right (the traced run
// times their JSON encoding).
func verify(ctx context.Context, base string, o *oracle, reqs []serve.Request, what string, res *runResult) []*serve.Response {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var answers []*serve.Response
	wrong, first := 0, ""
	for _, req := range reqs {
		resp, err := query(ctx, hc, base, req)
		if err == nil {
			err = o.check(req, resp)
		}
		if err != nil {
			if wrong++; first == "" {
				first = err.Error()
			}
			continue
		}
		answers = append(answers, resp)
	}
	res.Attempted += len(reqs)
	if wrong > 0 {
		res.fail(wrong, "%s: %d of %d answers differ from the oracle, first: %s", what, wrong, len(reqs), first)
	}
	return answers
}

// getJSON fetches a GET endpoint into v.
func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
