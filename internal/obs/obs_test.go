package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrent hammers one counter from many goroutines and
// demands an exact total — the lock-free hot path must not lose updates.
// Run under -race in CI.
func TestCounterConcurrent(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	const goroutines, perG = 16, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Half the goroutines resolve by name each time, half cache:
			// both paths must agree.
			c := reg.Counter("hits")
			for i := 0; i < perG/2; i++ {
				c.Inc()
				reg.Counter("hits").Inc()
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("hits").Load(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
}

// TestSnapshotDuringWrites takes snapshots while writers are running;
// under -race this proves snapshot-on-read never races the hot path.
func TestSnapshotDuringWrites(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := reg.Counter("w")
		h := reg.Latency("h")
		g := reg.Gauge("g")
		f := reg.FloatGauge("f")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Inc()
			h.ObserveNs(int64(i % 1000))
			g.Set(int64(i))
			f.Set(float64(i))
		}
	}()
	for i := 0; i < 100; i++ {
		s := reg.Snapshot()
		if s.Counters["w"] < 0 {
			t.Fatal("negative counter in snapshot")
		}
	}
	close(stop)
	wg.Wait()
}

func TestGaugesAndHistogram(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	reg.Gauge("workers").Set(8)
	reg.Gauge("workers").Add(-3)
	if got := reg.Gauge("workers").Load(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	reg.FloatGauge("ll").Set(-1234.5)
	if got := reg.FloatGauge("ll").Load(); got != -1234.5 {
		t.Errorf("float gauge = %g, want -1234.5", got)
	}
	h := reg.Latency("latency")
	for _, v := range []int64{1, 2, 3, 100, 7} {
		h.ObserveNs(v)
	}
	s := h.Snapshot()
	// Values below 16 have exact buckets; 100 lands in [96,103].
	if s.Count != 5 || s.Sum != 113 || s.P50 != 3 || s.P99 != 103 || s.Max != 103 {
		t.Errorf("histogram snapshot = %+v", s)
	}
	if got := s.Mean; math.Abs(got-22.6) > 1e-9 {
		t.Errorf("mean = %g, want 22.6", got)
	}
}

// TestHistogramNonPositive: non-positive observations are counted in
// bucket 0 and keep their value in the sum.
func TestHistogramNonPositive(t *testing.T) {
	t.Parallel()
	var h LatencyHist
	h.ObserveNs(0)
	h.ObserveNs(-5)
	s := h.Snapshot()
	if s.Count != 2 || s.Sum != -5 || s.P50 != 0 || s.Max != 0 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	reg.Counter("crawler.requests").Add(42)
	reg.Gauge("em.selected_k").Set(2)
	reg.FloatGauge("em.final_ll").Set(-99.25)
	reg.Latency("h").ObserveNs(10)
	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(b.String()), &s); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, b.String())
	}
	if s.Counters["crawler.requests"] != 42 {
		t.Errorf("counters = %v", s.Counters)
	}
	if s.Gauges["em.selected_k"] != 2 {
		t.Errorf("gauges = %v", s.Gauges)
	}
	if s.FloatGauges["em.final_ll"] != -99.25 {
		t.Errorf("float gauges = %v", s.FloatGauges)
	}
	if s.Latencies["h"].Count != 1 {
		t.Errorf("latencies = %v", s.Latencies)
	}
}

func TestRegistryNames(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	reg.Counter("b")
	reg.Gauge("a")
	reg.Latency("c")
	got := reg.Names()
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}

func TestSpanNesting(t *testing.T) {
	t.Parallel()
	root := StartSpan("geolocate")
	load := root.Child("load-trace")
	load.AddItems(1200)
	load.End()
	place := root.Child("placement")
	place.SetWorkers(4)
	place.ShardDone(0, 0, 25, time.Millisecond)
	place.ShardDone(1, 25, 50, 2*time.Millisecond)
	place.End()
	root.End()

	kids := root.Children()
	if len(kids) != 2 || kids[0].Name() != "load-trace" || kids[1].Name() != "placement" {
		t.Fatalf("children = %v", kids)
	}
	if got := place.Items(); got != 50 {
		t.Errorf("placement items = %d, want 50 (from shards)", got)
	}
	shards := place.Shards()
	if len(shards) != 2 || shards[0].Items() != 25 {
		t.Errorf("shards = %+v", shards)
	}
	if root.Find("placement") != place {
		t.Error("Find did not locate nested span")
	}
	if root.Find("nope") != nil {
		t.Error("Find invented a span")
	}
	if root.Duration() <= 0 {
		t.Error("ended root span has non-positive duration")
	}

	tree := root.Tree()
	for _, want := range []string{"geolocate", "load-trace", "placement", "items", "workers", "shards: 2"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
}

// TestSpanConcurrentChildren creates sibling spans and shard reports from
// many goroutines — the per-k EM fits do exactly this.
func TestSpanConcurrentChildren(t *testing.T) {
	t.Parallel()
	root := StartSpan("em-select")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := root.Child("fit")
			c.AddItems(int64(i))
			c.ShardDone(i, 0, 10, time.Microsecond)
			c.End()
		}(i)
	}
	wg.Wait()
	root.End()
	if got := len(root.Children()); got != 8 {
		t.Errorf("children = %d, want 8", got)
	}
}

func TestLoggerEventf(t *testing.T) {
	t.Parallel()
	var b syncBuilder
	l := NewLogger(&b)
	l.SetClock(func() time.Time { return time.Date(2018, 3, 1, 12, 0, 0, 0, time.UTC) })
	l.Eventf("crawl", "thread done", "thread", 12, "pages", 3)
	l.Eventf("polish", "removed flat profiles", "count", 2)
	got := b.String()
	for _, want := range []string{
		"ts=2018-03-01T12:00:00.000Z",
		"stage=crawl",
		`msg="thread done"`,
		"thread=12",
		"pages=3",
		"stage=polish",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("log missing %q:\n%s", want, got)
		}
	}
	if lines := strings.Count(got, "\n"); lines != 2 {
		t.Errorf("got %d lines, want 2:\n%s", lines, got)
	}
}

// syncBuilder is a strings.Builder usable as an io.Writer from the
// logger's locked section.
type syncBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestZeroAllocDisabled is the disabled-path contract: with a nil
// observer/registry/span, instrumentation calls allocate nothing. CI
// gates on this test by name.
func TestZeroAllocDisabled(t *testing.T) {
	var o *Observer
	var reg *Registry
	var span *Span
	var c *Counter
	var g *Gauge
	var f *FloatGauge
	var lh *LatencyHist
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(3)
		c.Inc()
		g.Set(7)
		f.Set(1.5)
		lh.Observe(9 * time.Microsecond)
		lh.ObserveNs(9)
		span.AddItems(1)
		span.SetWorkers(4)
		span.ShardDone(0, 0, 10, time.Millisecond)
		span.Child("x").End()
		reg.Counter("name").Inc()
		reg.Gauge("name").Set(1)
		reg.Latency("name").ObserveNs(2)
		o.Counter("name").Add(1)
		o.Latency("name").ObserveNs(1)
		o.Stage("stage").End()
		o.AddItems(5)
		o.SetWorkers(2)
		if o.Enabled() {
			t.Fatal("nil observer claims enabled")
		}
	})
	if allocs != 0 {
		t.Errorf("disabled instrumentation allocates %v per op, want 0", allocs)
	}
}

// TestZeroAllocEnabledHotPath: the *hot* instruments (resolved once)
// must not allocate per update even when enabled.
func TestZeroAllocEnabledHotPath(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hot")
	g := reg.Gauge("hot")
	f := reg.FloatGauge("hot")
	lh := reg.Latency("hot.ns")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(2)
		f.Set(3)
		lh.ObserveNs(5)
	})
	if allocs != 0 {
		t.Errorf("enabled hot-path updates allocate %v per op, want 0", allocs)
	}
}
