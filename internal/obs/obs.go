// Package obs is the pipeline's observability layer: a dependency-free
// metrics registry (atomic counters, gauges and latency histograms with a
// lock-free hot path and snapshot-on-read), a hierarchical stage tracer
// (Span), a structured progress logger, and an optional debug HTTP
// server exposing /metrics and net/http/pprof.
//
// Two properties govern every type in this package:
//
//   - Observation only. Nothing here feeds back into the pipeline:
//     instrumented code produces bit-identical output whether metrics are
//     on, off, or racing with a snapshot. Counters are updated with atomic
//     adds; reads assemble a consistent-enough snapshot without stopping
//     writers.
//
//   - Free when disabled. Every exported method tolerates a nil receiver
//     and returns immediately, allocating nothing, so instrumented hot
//     loops pay a single predictable nil check when observability is off.
//     Call sites that would build metric names dynamically must guard with
//     Observer.Enabled (name formatting is where allocations hide).
//
// Hot loops should resolve their instruments once, outside the loop
// (Registry lookups take a mutex; Counter.Add does not), exactly like
// caching a logger field.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic count. The zero value is
// ready to use; a nil *Counter ignores all updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current count (0 for a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-value-wins integer instrument. A nil *Gauge
// ignores all updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by delta (gauges may go down, unlike counters).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Load returns the current value (0 for a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is a last-value-wins float64 instrument (EM log-likelihoods,
// BIC scores). A nil *FloatGauge ignores all updates.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores the gauge value.
func (g *FloatGauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Load returns the current value (0 for a nil gauge).
func (g *FloatGauge) Load() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry holds named instruments. Registration (the name -> instrument
// lookup) takes a mutex and may allocate; the instruments themselves are
// lock-free, so hot loops resolve once and update atomically. A nil
// *Registry hands out nil instruments, which ignore all updates.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	floats   map[string]*FloatGauge
	lats     map[string]*LatencyHist
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		floats:   make(map[string]*FloatGauge),
		lats:     make(map[string]*LatencyHist),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// FloatGauge returns the named float gauge, creating it on first use.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.floats[name]
	if g == nil {
		g = &FloatGauge{}
		r.floats[name] = g
	}
	return g
}

// Latency returns the named latency histogram, creating it on first use.
func (r *Registry) Latency(name string) *LatencyHist {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.lats[name]
	if h == nil {
		h = &LatencyHist{}
		r.lats[name] = h
	}
	return h
}

// Snapshot is a point-in-time JSON-ready read of every instrument.
type Snapshot struct {
	Counters    map[string]int64           `json:"counters,omitempty"`
	Gauges      map[string]int64           `json:"gauges,omitempty"`
	FloatGauges map[string]float64         `json:"float_gauges,omitempty"`
	Latencies   map[string]LatencySnapshot `json:"latencies,omitempty"`
}

// Snapshot reads every registered instrument. Writers are never blocked:
// the registration lock is held only to copy the instrument pointers, and
// each value is then read atomically.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	floats := make(map[string]*FloatGauge, len(r.floats))
	for k, v := range r.floats {
		floats[k] = v
	}
	lats := make(map[string]*LatencyHist, len(r.lats))
	for k, v := range r.lats {
		lats[k] = v
	}
	r.mu.Unlock()

	if len(counters) > 0 {
		s.Counters = make(map[string]int64, len(counters))
		for k, v := range counters {
			s.Counters[k] = v.Load()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]int64, len(gauges))
		for k, v := range gauges {
			s.Gauges[k] = v.Load()
		}
	}
	if len(floats) > 0 {
		s.FloatGauges = make(map[string]float64, len(floats))
		for k, v := range floats {
			s.FloatGauges[k] = v.Load()
		}
	}
	if len(lats) > 0 {
		s.Latencies = make(map[string]LatencySnapshot, len(lats))
		for k, v := range lats {
			s.Latencies[k] = v.Snapshot()
		}
	}
	return s
}

// WriteJSON writes an indented JSON snapshot of the registry. Map keys
// are emitted in sorted order (encoding/json's behaviour), so the report
// is diff-friendly.
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal metrics snapshot: %w", err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("obs: write metrics snapshot: %w", err)
	}
	return nil
}

// Names returns the sorted names of all registered instruments of every
// kind, mainly for tests and debugging.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.floats)+len(r.lats))
	for k := range r.counters {
		out = append(out, k)
	}
	for k := range r.gauges {
		out = append(out, k)
	}
	for k := range r.floats {
		out = append(out, k)
	}
	for k := range r.lats {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
