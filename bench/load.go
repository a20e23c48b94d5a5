package main

// The serve-query load generator: an open loop. Arrivals are drawn in
// advance at a fixed Poisson rate; each is sent at its due time by one of
// maxSenders senders, and when both are busy it waits. Latency runs from
// the due time, so a stall in the daemon also delays — and is charged to —
// every request that came due during it.

import (
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// maxSenders bounds the load generator: the machine has two cores, which
// the generator shares with the daemon.
const maxSenders = 2

type opKind uint8

const (
	opPlace opKind = iota
	opIngest
	opHealthz
	opReport
	numOps
)

// arrival is one scheduled request.
type arrival struct {
	due  time.Duration // from the start of the phase
	kind opKind
	arg  int32 // the user of a /place, the body of an /ingest
}

// outcome is what became of one arrival.
type outcome struct {
	lat  time.Duration // completion − due
	late time.Duration // send − due: how late the generator ran
	ok   bool
}

// The query mix, in arrivals per 100, and its other constants.
const (
	placeShare     = 0.97
	ingestShare    = 0.02
	trickleLines   = 16                     // posts per trickle /ingest
	reportInterval = 500 * time.Millisecond // /report is polled at 2/s
	zipfS          = 1.1
)

// querySchedule draws one phase: Poisson arrivals at rate per second for
// d, of which 97% are /place for Zipf-popular users, 2% are trickle
// ingests and 1% are /healthz, plus /report every reportInterval. Ingest
// arrivals number their bodies from *bodies on.
func querySchedule(r *rand.Rand, rate float64, d time.Duration, users int, bodies *int) []arrival {
	popular := r.Perm(users)
	zipf := rand.NewZipf(r, zipfS, 1, uint64(users-1))
	var out []arrival
	next := reportInterval / 2
	for t := time.Duration(0); ; {
		t += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
		for next <= t && next < d {
			out = append(out, arrival{due: next, kind: opReport})
			next += reportInterval
		}
		if t >= d {
			return out
		}
		a := arrival{due: t, kind: opHealthz}
		switch x := r.Float64(); {
		case x < placeShare:
			a.kind, a.arg = opPlace, int32(popular[zipf.Uint64()])
		case x < placeShare+ingestShare:
			a.kind, a.arg = opIngest, int32(*bodies)
			*bodies++
		}
		out = append(out, a)
	}
}

// openLoop sends every arrival at its due time and returns one outcome per
// arrival and the largest backlog seen: arrivals due but not yet sent.
// do reports whether the request succeeded; sender is 0 or 1, so do may
// keep per-sender buffers.
func openLoop(sched []arrival, do func(sender int, a arrival) bool) ([]outcome, int) {
	out := make([]outcome, len(sched))
	backlog := make([]int, maxSenders)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for s := 0; s < maxSenders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// The thread is dedicated to pacing while the phase runs. It
			// goes back to the runtime's pool afterwards rather than
			// exiting: darkcrowd children die with the thread that
			// started them (their parent-death signal).
			runtime.LockOSThread()
			setTimerSlack(1)
			defer runtime.UnlockOSThread()
			defer setTimerSlack(0)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i].due)
				sleepUntil(due)
				sent := time.Now()
				dueNow := sort.Search(len(sched), func(j int) bool { return start.Add(sched[j].due).After(sent) })
				backlog[s] = max(backlog[s], dueNow-i-1)
				ok := do(s, sched[i])
				out[i] = outcome{lat: time.Since(due), late: sent.Sub(due), ok: ok}
			}
		}(s)
	}
	wg.Wait()
	return out, max(backlog[0], backlog[1])
}

// setTimerSlack sets how late, in nanoseconds, the kernel may end the
// calling thread's sleeps; 1 makes them end within microseconds of their
// deadline, 0 restores the default of 50 µs.
func setTimerSlack(ns uintptr) {
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, ns, 0)
}

// sleepUntil blocks the calling thread until t. The Go runtime's timers
// can wake a millisecond late on an idle machine, which would swamp
// /place latencies of tens of microseconds; nanosleep on a thread with
// low timer slack wakes within a few.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
