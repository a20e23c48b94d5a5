package obs

// Observer bundles the three observation channels a pipeline stage
// reports to — the metrics registry, the current stage span, and the
// progress logger — so options structs thread one pointer instead of
// three. A nil *Observer is fully inert: every method returns immediately
// without allocating, which is what makes instrumentation free when
// observability is off.
type Observer struct {
	// Metrics receives counters/gauges/histograms; may be nil.
	Metrics *Registry
	// Span is the stage this observer reports under; may be nil.
	Span *Span
	// Log receives progress events; may be nil.
	Log *Logger
}

// Enabled reports whether any observation can happen. Call sites that
// build metric names dynamically (fmt.Sprintf) must guard with Enabled so
// the disabled path stays allocation-free.
func (o *Observer) Enabled() bool { return o != nil }

// Stage starts a child span named name and returns a derived observer
// reporting under it; call End on the result when the stage finishes.
// Returns nil when o is nil.
func (o *Observer) Stage(name string) *Observer {
	if o == nil {
		return nil
	}
	// With no span attached the derived observer is span-less too (Child
	// on a nil span returns nil); metrics and logging still flow.
	return &Observer{Metrics: o.Metrics, Span: o.Span.Child(name), Log: o.Log}
}

// End finishes the observer's span (no-op without one).
func (o *Observer) End() {
	if o == nil {
		return
	}
	o.Span.End()
}

// SpanRef returns the observer's span (nil when absent), for handing to
// par.RangesObserved as the shard observer.
func (o *Observer) SpanRef() *Span {
	if o == nil {
		return nil
	}
	return o.Span
}

// AddItems adds to the current stage's item count.
func (o *Observer) AddItems(n int64) {
	if o == nil {
		return
	}
	o.Span.AddItems(n)
}

// SetWorkers records the current stage's worker count.
func (o *Observer) SetWorkers(n int) {
	if o == nil {
		return
	}
	o.Span.SetWorkers(n)
}

// Counter resolves a named counter (nil when metrics are off).
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(name)
}

// Gauge resolves a named gauge (nil when metrics are off).
func (o *Observer) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.Gauge(name)
}

// FloatGauge resolves a named float gauge (nil when metrics are off).
func (o *Observer) FloatGauge(name string) *FloatGauge {
	if o == nil {
		return nil
	}
	return o.Metrics.FloatGauge(name)
}

// Latency resolves a named latency histogram (nil when metrics are off).
func (o *Observer) Latency(name string) *LatencyHist {
	if o == nil {
		return nil
	}
	return o.Metrics.Latency(name)
}

// Eventf emits a progress event (no-op without a logger).
func (o *Observer) Eventf(stage, msg string, kv ...any) {
	if o == nil {
		return
	}
	o.Log.Eventf(stage, msg, kv...)
}
