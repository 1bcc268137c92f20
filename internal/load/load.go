// Package load is the production load harness: a deterministic open-loop
// workload generator over the serving layer's query and append surface.
// A seeded Config expands to a fixed Schedule of timestamped operations —
// point, slice and roll-up queries with Zipf-skewed hot keys, plus
// appends — labelled with tenants so the per-tenant admission control in
// internal/admit is exercised under realistic contention. The runner
// fires the schedule open-loop (arrivals do not wait for completions,
// the way real traffic behaves when the server slows down) and folds
// every completion into mergeable HDR latency histograms from
// internal/obs, per tenant and overall.
//
// Every target speaks HTTP (HTTPTarget): a live x3serve, or an
// in-process store behind the same internal/servehttp edge on a local
// listener, so admission, status mapping and error bodies are the
// edge's own and benchmark numbers and the race-run soak test share one
// workload definition.
package load

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"x3/internal/serve"
)

// OpKind is a workload operation class.
type OpKind int

const (
	// OpPoint is a fully constrained point query on a hot key.
	OpPoint OpKind = iota
	// OpSlice fixes one axis value and groups by another.
	OpSlice
	// OpRollup addresses a coarse cuboid with no constraint.
	OpRollup
	// OpAppend appends a small document through the WAL path.
	OpAppend
	numOpKinds
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpPoint:
		return "point"
	case OpSlice:
		return "slice"
	case OpRollup:
		return "rollup"
	case OpAppend:
		return "append"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Mix is a query-mix specification: relative weights per operation kind.
// Weights need not sum to 1; zero-weight kinds never fire.
type Mix struct {
	Point  float64 `json:"point"`
	Slice  float64 `json:"slice"`
	Rollup float64 `json:"rollup"`
	Append float64 `json:"append"`
}

// ParseMix parses "point=0.6,slice=0.3,rollup=0.1" form.
func ParseMix(s string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return Mix{}, fmt.Errorf("load: mix term %q is not kind=weight", part)
		}
		var w float64
		if _, err := fmt.Sscanf(strings.TrimSpace(kv[1]), "%g", &w); err != nil || w < 0 {
			return Mix{}, fmt.Errorf("load: mix weight %q is not a non-negative number", kv[1])
		}
		switch strings.TrimSpace(kv[0]) {
		case "point":
			m.Point = w
		case "slice":
			m.Slice = w
		case "rollup":
			m.Rollup = w
		case "append":
			m.Append = w
		default:
			return Mix{}, fmt.Errorf("load: unknown mix kind %q", kv[0])
		}
	}
	if m.Point+m.Slice+m.Rollup+m.Append <= 0 {
		return Mix{}, fmt.Errorf("load: mix %q has no positive weight", s)
	}
	return m, nil
}

// String renders the mix in ParseMix form.
func (m Mix) String() string {
	var parts []string
	for _, t := range []struct {
		k string
		w float64
	}{{"point", m.Point}, {"slice", m.Slice}, {"rollup", m.Rollup}, {"append", m.Append}} {
		if t.w > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", t.k, t.w))
		}
	}
	return strings.Join(parts, ",")
}

// pick samples an operation kind from the mix.
func (m Mix) pick(rng *rand.Rand) OpKind {
	total := m.Point + m.Slice + m.Rollup + m.Append
	x := rng.Float64() * total
	switch {
	case x < m.Point:
		return OpPoint
	case x < m.Point+m.Slice:
		return OpSlice
	case x < m.Point+m.Slice+m.Rollup:
		return OpRollup
	default:
		return OpAppend
	}
}

// Op is one scheduled operation.
type Op struct {
	// At is the arrival offset from the schedule start.
	At time.Duration
	// Kind selects the operation class.
	Kind OpKind
	// Tenant labels the request for admission control.
	Tenant string
	// Warmup marks operations fired before the measurement phase; the
	// runner executes but does not record them.
	Warmup bool
	// Request is the query (query kinds only).
	Request serve.Request
	// Body is the append document (OpAppend only).
	Body []byte
	// Seq numbers appends in schedule order.
	Seq int
}

// Config parameterizes a schedule.
type Config struct {
	// Seed makes the schedule deterministic: same seed, same ops.
	Seed int64
	// Rate is the offered arrival rate in operations per second.
	Rate float64
	// Duration is the measurement phase length.
	Duration time.Duration
	// Warmup is fired before the measurement phase to fill caches and
	// JIT the store's read paths; its completions are not recorded.
	Warmup time.Duration
	// Mix weights the operation kinds.
	Mix Mix
	// Tenants is the tenant population size (minimum 1). Tenant labels
	// are "tenant0".."tenantN-1".
	Tenants int
	// HotTenantShare is the fraction of arrivals attributed to tenant0,
	// modelling one tenant pushing past its fair share; the remainder
	// spreads uniformly over the other tenants. 0 means uniform.
	HotTenantShare float64
	// ZipfS is the hot-key skew exponent (> 1); 0 picks 1.2.
	ZipfS float64
	// Workload supplies the concrete queries and append bodies.
	Workload Workload
}

// Workload maps schedule draws to concrete operations for one dataset.
type Workload interface {
	// Query builds the kind-shaped query for hot-key rank key.
	Query(kind OpKind, key uint64) serve.Request
	// Append renders the seq-th append document.
	Append(seq int) []byte
}

// Schedule expands the config to its deterministic operation sequence:
// exponential inter-arrival times at Rate, kinds from Mix, hot keys from
// a Zipf draw, tenants from the skewed tenant distribution. Warmup ops
// come first with negative-phase marking; measurement ops follow.
func Schedule(cfg Config) []Op {
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := cfg.ZipfS
	if s <= 1 {
		s = 1.2
	}
	zipf := rand.NewZipf(rng, s, 1, 1<<20)
	tenants := cfg.Tenants
	if tenants < 1 {
		tenants = 1
	}
	total := cfg.Warmup + cfg.Duration
	var ops []Op
	seq := 0
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second))
		if at >= total {
			break
		}
		kind := cfg.Mix.pick(rng)
		op := Op{
			At:     at,
			Kind:   kind,
			Tenant: pickTenant(rng, tenants, cfg.HotTenantShare),
			Warmup: at < cfg.Warmup,
		}
		if kind == OpAppend {
			op.Seq = seq
			op.Body = cfg.Workload.Append(seq)
			seq++
		} else {
			op.Request = cfg.Workload.Query(kind, zipf.Uint64())
		}
		ops = append(ops, op)
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
	return ops
}

// pickTenant draws a tenant label: tenant0 with the hot share, the rest
// uniform.
func pickTenant(rng *rand.Rand, tenants int, hotShare float64) string {
	if tenants == 1 {
		return "tenant0"
	}
	if hotShare > 0 && rng.Float64() < hotShare {
		return "tenant0"
	}
	return fmt.Sprintf("tenant%d", 1+rng.Intn(tenants-1))
}

// TenantLabels returns the tenant population a config schedules over.
func (cfg Config) TenantLabels() []string {
	n := cfg.Tenants
	if n < 1 {
		n = 1
	}
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("tenant%d", i)
	}
	return labels
}

// DBLPWorkload shapes queries against the synthetic DBLP dataset from
// internal/dataset: axes $au (author), $m (month), $y (year), $j
// (journal) with the generator's value domains.
type DBLPWorkload struct {
	// Journals, Authors, YearFrom, YearTo mirror dataset.DBLPConfig.
	Journals int
	Authors  int
	YearFrom int
	YearTo   int
}

// dblpMonths mirrors the dataset generator's month domain.
var dblpMonths = []string{"jan", "feb", "mar", "apr", "may", "jun",
	"jul", "aug", "sep", "oct", "nov", "dec"}

// Query implements Workload. The hot-key rank keys the constrained value
// so a Zipf draw concentrates on a few journals/authors/years, the way
// production dashboards hammer current data.
func (w DBLPWorkload) Query(kind OpKind, key uint64) serve.Request {
	switch kind {
	case OpPoint:
		// A single journal's aggregate: one row from a rigid cuboid.
		j := fmt.Sprintf("Journal %d", key%uint64(w.Journals))
		return serve.Request{
			Cuboid: map[string]string{"$j": "rigid"},
			Where:  map[string]string{"$j": j},
		}
	case OpSlice:
		// One year's per-journal breakdown.
		years := w.YearTo - w.YearFrom + 1
		y := fmt.Sprintf("%d", w.YearTo-int(key%uint64(years)))
		return serve.Request{
			Cuboid: map[string]string{"$y": "rigid", "$j": "rigid"},
			Where:  map[string]string{"$y": y},
		}
	default:
		// Roll-up: alternate between the per-year and per-journal
		// marginals, the classic OLAP drill path.
		if key%2 == 0 {
			return serve.Request{Cuboid: map[string]string{"$y": "rigid"}}
		}
		return serve.Request{Cuboid: map[string]string{"$j": "rigid"}}
	}
}

// Append implements Workload: a small well-formed DBLP delta document
// with one fresh article per call, unique by sequence number.
func (w DBLPWorkload) Append(seq int) []byte {
	var sb strings.Builder
	sb.WriteString("<dblp>")
	fmt.Fprintf(&sb, `<article key="load/a%d">`, seq)
	fmt.Fprintf(&sb, "<author>Load Author %d</author>", seq%w.Authors)
	sb.WriteString("<title>t</title>")
	fmt.Fprintf(&sb, "<journal>Journal %d</journal>", seq%w.Journals)
	fmt.Fprintf(&sb, "<year>%d</year>", w.YearFrom+seq%(w.YearTo-w.YearFrom+1))
	fmt.Fprintf(&sb, "<month>%s</month>", dblpMonths[seq%len(dblpMonths)])
	sb.WriteString("</article></dblp>")
	return []byte(sb.String())
}
