package main

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		label string
	}{
		{30, ""}, {40, "p75"}, {99, "p75"}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {10000, "p99.9"},
	} {
		s := newSamples(c.n)
		for i := 0; i < c.n; i++ {
			s.add(float64(i))
		}
		label, v, ok := s.tail()
		if label != c.label || ok != (c.label != "") {
			t.Errorf("n=%d: tail %q (ok %v), want %q", c.n, label, ok, c.label)
			continue
		}
		if ok {
			beyond := 0
			for _, x := range s.v {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: %s = %v has %d samples beyond it", c.n, label, v, beyond)
			}
		}
	}
}

func TestMedianAndQuantile(t *testing.T) {
	s := newSamples(4)
	for _, x := range []float64{4, 1, 3, 2} {
		s.add(x)
	}
	if m := s.median(); m != 2.5 {
		t.Errorf("median %v, want 2.5", m)
	}
	if q := s.quantile(0.75); q != 3 {
		t.Errorf("p75 %v, want 3", q)
	}
	s.add(10)
	if m := s.median(); m != 3 {
		t.Errorf("median after add %v, want 3", m)
	}
}

// A daemon that stalls holds up every request due during the stall. Timed
// from their due times, those requests show the stall; timed from when
// they were sent, they would not.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 60 * time.Millisecond
	var sched []arrival
	for i := 0; i < 200; i++ {
		sched = append(sched, arrival{due: time.Duration(i) * time.Millisecond, arg: int32(i)})
	}
	var server sync.Mutex
	out, backlog := openLoop(sched, func(_ int, a arrival) bool {
		server.Lock()
		defer server.Unlock()
		if a.arg == 50 {
			time.Sleep(stall)
		}
		return true
	})
	delayed := 0
	for i, o := range out {
		if !o.ok {
			t.Fatalf("arrival %d failed", i)
		}
		if i > 50 && o.lat >= stall/3 {
			delayed++
		}
	}
	if delayed < 20 {
		t.Errorf("only %d requests after the stall show it in due-time latency", delayed)
	}
	if backlog < 10 {
		t.Errorf("backlog max %d; the stall should queue dozens of arrivals", backlog)
	}
	if out[150].lat > stall/3 {
		t.Errorf("arrival 150, due long after the stall, took %v", out[150].lat)
	}
}

func TestQueryScheduleMix(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	bodies := 0
	sched := querySchedule(r, 5000, 4*time.Second, 100, &bodies)
	var counts [numOps]int
	for i, a := range sched {
		if i > 0 && a.due < sched[i-1].due {
			t.Fatal("arrivals out of order")
		}
		counts[a.kind]++
	}
	total := float64(len(sched) - counts[opReport])
	if total < 19000 || total > 21000 {
		t.Errorf("%v Poisson arrivals in 4 s at 5000/s", total)
	}
	if counts[opReport] != 8 {
		t.Errorf("%d /report polls in 4 s, want 8", counts[opReport])
	}
	if p := float64(counts[opPlace]) / total; p < 0.96 || p > 0.98 {
		t.Errorf("/place share %.3f", p)
	}
	if counts[opIngest] != bodies {
		t.Errorf("%d ingests numbered %d bodies", counts[opIngest], bodies)
	}
}
