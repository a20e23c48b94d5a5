package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one node of the hierarchical stage trace: a named stage with a
// wall-clock interval, an item count, a worker count, and optional
// per-shard records filled in by the par.Ranges instrumentation hook. A
// nil *Span ignores every call, so instrumented code never branches on
// whether tracing is on.
//
// Spans are safe for concurrent use: parallel stages may add items and
// report shards from many goroutines, and sibling child spans may be
// created concurrently (the per-k EM fits do).
type Span struct {
	name    string
	start   time.Time
	items   atomic.Int64
	workers atomic.Int64

	mu       sync.Mutex
	end      time.Time
	children []*Span
	shards   []ShardRecord
}

// ShardRecord is the completion report of one contiguous work shard.
type ShardRecord struct {
	// Worker is the shard's index in the worker pool.
	Worker int
	// Start and End delimit the half-open item range the shard covered.
	Start, End int
	// Elapsed is the shard's wall time.
	Elapsed time.Duration
}

// Items is the number of items the shard covered.
func (r ShardRecord) Items() int { return r.End - r.Start }

// StartSpan starts a root span.
func StartSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Child starts a nested stage under s and returns it. Returns nil when s
// is nil, keeping the whole subtree free when tracing is off.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End marks the stage finished. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// AddItems adds to the stage's processed-item count.
func (s *Span) AddItems(n int64) {
	if s == nil {
		return
	}
	s.items.Add(n)
}

// Items returns the processed-item count so far.
func (s *Span) Items() int64 {
	if s == nil {
		return 0
	}
	return s.items.Load()
}

// SetWorkers records how many workers the stage ran on.
func (s *Span) SetWorkers(n int) {
	if s == nil {
		return
	}
	s.workers.Store(int64(n))
}

// ShardDone records the completion of one work shard; it satisfies
// par.ShardObserver, so a span can be handed straight to
// par.RangesObserved. The shard's item count is added to the span total.
func (s *Span) ShardDone(worker, start, end int, elapsed time.Duration) {
	if s == nil {
		return
	}
	s.items.Add(int64(end - start))
	s.mu.Lock()
	s.shards = append(s.shards, ShardRecord{Worker: worker, Start: start, End: end, Elapsed: elapsed})
	s.mu.Unlock()
}

// Shards returns a copy of the recorded shard reports.
func (s *Span) Shards() []ShardRecord {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]ShardRecord(nil), s.shards...)
}

// Name returns the stage name ("" for a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the stage's wall time; for an unfinished span it is
// the time elapsed so far.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	end := s.end
	s.mu.Unlock()
	if end.IsZero() {
		return time.Since(s.start)
	}
	return end.Sub(s.start)
}

// Children returns a copy of the nested stages in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Find returns the first span named name in the subtree rooted at s
// (depth-first, s included), or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.name == name {
		return s
	}
	for _, c := range s.Children() {
		if found := c.Find(name); found != nil {
			return found
		}
	}
	return nil
}

// Tree renders the span tree with durations, item counts, worker counts,
// throughput and a shard summary:
//
//	geolocate                      41.8ms
//	  profile-build                 3.1ms     90 items   8 workers   29032 items/s
//	    shards: 8, items 11-12, elapsed 0.4ms-0.7ms
func (s *Span) Tree() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.writeTree(&b, 0)
	return b.String()
}

func (s *Span) writeTree(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	d := s.Duration()
	fmt.Fprintf(b, "%s%-*s %10s", indent, 28-2*depth, s.name, fmtDuration(d))
	if n := s.items.Load(); n > 0 {
		fmt.Fprintf(b, " %7d items", n)
		if secs := d.Seconds(); secs > 0 {
			fmt.Fprintf(b, " %9.0f items/s", float64(n)/secs)
		}
	}
	if wk := s.workers.Load(); wk > 0 {
		fmt.Fprintf(b, " %3d workers", wk)
	}
	b.WriteByte('\n')

	s.mu.Lock()
	shards := append([]ShardRecord(nil), s.shards...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()

	if len(shards) > 0 {
		minItems, maxItems := shards[0].Items(), shards[0].Items()
		minD, maxD := shards[0].Elapsed, shards[0].Elapsed
		for _, sh := range shards[1:] {
			if it := sh.Items(); it < minItems {
				minItems = it
			} else if it > maxItems {
				maxItems = it
			}
			if sh.Elapsed < minD {
				minD = sh.Elapsed
			} else if sh.Elapsed > maxD {
				maxD = sh.Elapsed
			}
		}
		fmt.Fprintf(b, "%s  shards: %d, items %d-%d, elapsed %s-%s\n",
			indent, len(shards), minItems, maxItems, fmtDuration(minD), fmtDuration(maxD))
	}
	for _, c := range children {
		c.writeTree(b, depth+1)
	}
}

// fmtDuration rounds a duration to a readable precision for the tree.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(100 * time.Nanosecond).String()
	}
}
