package main

// Spans of a traced run: the benchmark records one span around each call
// it makes into a layer, keeps them in memory, and writes them out when
// the run ends. A span's self time is its duration minus the part of it
// that its children cover.

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call. Spans of one request share Req.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for the root
	Name   string `json:"name"`
	Req    int64  `json:"req,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer records spans. While off, begin returns -1 and nothing is kept,
// which is how the run measures its own overhead.
type tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{on: true, epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if !t.on {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	if id < 0 {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// timed runs f inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent int32, f func(id int32) error) (time.Duration, error) {
	id := t.begin(name, parent, 0)
	err := f(id)
	return t.end(id), err
}

// layerTime is the self time of every span with one name.
type layerTime struct {
	name  string
	calls int
	self  time.Duration
}

// selfTimes sums the self time of the spans by name, largest first.
func selfTimes(spans []span) []layerTime {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := make(map[string]*layerTime)
	var out []layerTime
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			byName[s.Name] = lt
		}
		lt.calls++
		lt.self += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	for _, lt := range byName {
		out = append(out, *lt)
	}
	slices.SortFunc(out, func(a, b layerTime) int { return cmp.Compare(b.self, a.self) })
	return out
}

// covered is the length of the union of the child intervals within s.
func covered(s span, kids [][2]int64) int64 {
	slices.SortFunc(kids, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, upTo int64 = 0, s.Start
	for _, k := range kids {
		lo, hi := max(k[0], upTo), min(k[1], s.End)
		if hi > lo {
			total += hi - lo
			upTo = hi
		}
	}
	return total
}

// write saves the spans as JSON.
func (t *tracer) write(path, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
