package load

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"x3/internal/admit"
	"x3/internal/obs"
	"x3/internal/serve"
)

// Result is one completed operation as the harness saw it: the HTTP
// status, the structured error code when not OK, and the end-to-end
// latency.
type Result struct {
	// Status is the HTTP status code (200 OK, 429 over quota, 503 shed,
	// 504 deadline, 400 bad request, 500 internal).
	Status int
	// Code is the structured error code ("over_quota", "shed", ...) on
	// non-200 statuses.
	Code string
	// RetryAfter is the server's backoff hint on 429/503.
	RetryAfter time.Duration
	// Latency is the end-to-end operation time, admission included.
	Latency time.Duration
	// Degraded is set when the answer came from a fallback path (only
	// when HTTPTarget.CaptureBody is set).
	Degraded bool
	// Partial is set when a sharded backend answered without some fact
	// partitions (the response names them in Missing; only when
	// HTTPTarget.CaptureBody is set).
	Partial bool
	// Backoffs counts 429-driven backoff-and-retry cycles this operation
	// went through before completing (HTTPTarget with MaxBackoffs only).
	Backoffs int
	// Resp is the decoded answer for query operations (only when
	// HTTPTarget.CaptureBody is set).
	Resp *serve.Response
}

// OK reports whether the operation completed with an answer.
func (r Result) OK() bool { return r.Status == http.StatusOK }

// Target executes scheduled operations against some serving surface.
type Target interface {
	Do(ctx context.Context, op Op) Result
}

// classFor is the priority class HTTPTarget sends in the X3-Priority
// header: appends are Background, queries Interactive.
func classFor(kind OpKind) admit.Class {
	if kind == OpAppend {
		return admit.Background
	}
	return admit.Interactive
}

// HTTPTarget drives a live x3serve over the wire, labelling requests
// with the tenant and priority headers from internal/servehttp.
type HTTPTarget struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8733".
	BaseURL string
	// Client is the HTTP client; nil uses a dedicated client with a
	// large connection pool so the open-loop schedule is not throttled
	// by the transport.
	Client *http.Client
	// CaptureBody decodes query answers into Result.Resp (costs an
	// allocation per request; the soak test wants it, benchmarks don't).
	CaptureBody bool
	// MaxBackoffs makes the target a well-behaved client under admission
	// pressure: a 429 is retried after the server's Retry-After hint
	// (with deterministic jitter, so retries from many workers do not
	// re-synchronize) up to this many times before the refusal is
	// reported. 0 keeps the old fire-once behaviour.
	MaxBackoffs int
	// BackoffCap clamps each backoff sleep; 0 means the server's hint is
	// taken as-is (whole seconds — benchmarks will want a cap).
	BackoffCap time.Duration
	// Registry counts load.backoff, one increment per backoff sleep, so
	// admission pressure absorbed by client patience stays visible in
	// reports. Nil disables.
	Registry *obs.Registry
}

// client returns the effective HTTP client.
func (t *HTTPTarget) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return defaultClient
}

// defaultClient has a pool sized for open-loop bursts.
var defaultClient = &http.Client{
	Transport: &http.Transport{
		MaxIdleConns:        512,
		MaxIdleConnsPerHost: 512,
	},
}

// Do implements Target: one wire operation, with bounded jittered
// backoff on 429 when MaxBackoffs is set. The reported latency spans
// the whole exchange, backoff sleeps included — that is the latency the
// client actually experienced.
func (t *HTTPTarget) Do(ctx context.Context, op Op) Result {
	start := time.Now()
	backoffs := 0
	for {
		res := t.doOnce(ctx, op)
		if res.Status != http.StatusTooManyRequests || backoffs >= t.MaxBackoffs || ctx.Err() != nil {
			res.Backoffs = backoffs
			res.Latency = time.Since(start)
			return res
		}
		d := res.RetryAfter
		if d <= 0 {
			d = time.Second
		}
		if t.BackoffCap > 0 && d > t.BackoffCap {
			d = t.BackoffCap
		}
		d = backoffJitter(d, op, backoffs)
		backoffs++
		if t.Registry != nil {
			t.Registry.Counter("load.backoff").Inc()
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			res.Backoffs = backoffs
			res.Latency = time.Since(start)
			return res
		}
	}
}

// backoffJitter spreads a backoff hint over [d/2, d): synchronized 429s
// from many workers would otherwise re-fire in lockstep and collide at
// the bucket again. The jitter is deterministic in (op, attempt) so
// schedules replay.
func backoffJitter(d time.Duration, op Op, attempt int) time.Duration {
	h := uint64(op.At) ^ uint64(op.Seq)<<32 ^ uint64(attempt)<<56 ^ uint64(len(op.Tenant))<<48
	// splitmix64 finalizer — cheap, well-mixed, dependency-free.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	frac := float64(h%1024) / 1024
	return d/2 + time.Duration(frac*float64(d/2))
}

// doOnce issues one HTTP exchange.
func (t *HTTPTarget) doOnce(ctx context.Context, op Op) Result {
	var (
		path        string
		body        []byte
		contentType string
	)
	if op.Kind == OpAppend {
		path, body, contentType = "/append", op.Body, "application/xml"
	} else {
		b, err := json.Marshal(op.Request)
		if err != nil {
			return Result{Status: http.StatusBadRequest, Code: "bad_request"}
		}
		path, body, contentType = "/query", b, "application/json"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return Result{Status: http.StatusBadRequest, Code: "bad_request"}
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("X3-Tenant", op.Tenant)
	req.Header.Set("X3-Priority", classFor(op.Kind).String())

	start := time.Now()
	resp, err := t.client().Do(req)
	if err != nil {
		code := "transport"
		if errors.Is(err, context.DeadlineExceeded) {
			code = "deadline"
		}
		return Result{Status: http.StatusServiceUnavailable, Code: code, Latency: time.Since(start)}
	}
	defer resp.Body.Close()
	res := Result{Status: resp.StatusCode, Latency: time.Since(start)}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if s, err := strconv.Atoi(ra); err == nil {
			res.RetryAfter = time.Duration(s) * time.Second
		}
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Code string `json:"code"`
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e); err == nil {
			res.Code = e.Code
		}
		return res
	}
	if op.Kind != OpAppend {
		if t.CaptureBody {
			var sr serve.Response
			if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&sr); err != nil {
				res.Status = http.StatusInternalServerError
				res.Code = fmt.Sprintf("decode: %v", err)
				return res
			}
			res.Resp = &sr
			res.Degraded = sr.Degraded
			res.Partial = sr.Partial
		} else {
			io.Copy(io.Discard, resp.Body)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	res.Latency = time.Since(start)
	return res
}
