// Package obs mirrors the real registry's metric-minting API so the
// path-scoped obskey analyzer binds to it.
package obs

import "time"

// Registry mints metrics by key.
type Registry struct{}

// Metric is a stand-in for every metric kind's handle.
type Metric struct{}

// Inc bumps the metric.
func (m *Metric) Inc() {}

// Add folds n into the metric.
func (m *Metric) Add(n int64) {}

// Observe records one duration.
func (m *Metric) Observe(d time.Duration) {}

// Counter mints a counter under name.
func (r *Registry) Counter(name string) *Metric { return &Metric{} }

// Gauge mints a gauge under name.
func (r *Registry) Gauge(name string) *Metric { return &Metric{} }

// Span opens a span under name; the returned func closes it.
func (r *Registry) Span(name string) func() { return func() {} }

// HDR mints a high-dynamic-range latency histogram under name.
func (r *Registry) HDR(name string) *Metric { return &Metric{} }
