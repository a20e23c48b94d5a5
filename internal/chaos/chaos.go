// Package chaos is a seeded, deterministic fault-injection harness for
// the analysis pipeline — the analysis-side sibling of the crawl-side
// onion.FaultInjector. One injector carries a seeded fault plan across
// the pipeline's failure surfaces:
//
//   - worker panics inside a parallel stage (via a wrapped profile
//     cell hook);
//   - corrupt trace rows (via a trace-mangling transform);
//   - mid-stage context cancellation (via a poll-counting context);
//   - atomic-write I/O failures (via an atomicio fault hook).
//
// Determinism guarantee: the sequence of fault decisions is a pure
// function of the seed, the configured rates, and the order the
// pipeline consults the injector. Which shard a decision lands on may
// depend on scheduling, but the invariants the tests assert are
// scheduling-free: no output file is ever left partially written, and
// any run that eventually succeeds — including a rerun after injected
// crashes — produces output bit-identical to a fault-free run.
package chaos

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"darkcrowd/internal/atomicio"
	"darkcrowd/internal/core/profile"
)

// Config tunes an Injector. All probabilities are per opportunity: each
// profile cell evaluation, trace data row, atomic write step, or
// context poll draws one decision from the seeded plan.
type Config struct {
	// Seed drives the fault plan; same seed, same decision sequence.
	Seed int64
	// PanicProb is the probability that a profile cell evaluation panics,
	// killing that worker's shard mid-stage.
	PanicProb float64
	// CorruptProb is the probability that a trace data row is mangled by
	// Corrupt (bad timestamp, missing field, or bare-quote damage).
	CorruptProb float64
	// WriteFailProb is the probability that an atomic write step
	// fails with an injected I/O error.
	WriteFailProb float64
	// CancelEvery trips an injected context cancellation on every Nth
	// poll of a Context-wrapped context (0 disables cancellation).
	CancelEvery int
	// MaxFaults bounds the total number of injected faults; once spent
	// the pipeline runs fault-free, so a retry loop always converges.
	// 0 means unlimited.
	MaxFaults int
}

// Stats counts the faults an injector has fired.
type Stats struct {
	Panics, CorruptRows, WriteFails, Cancels int
}

// Total returns the number of injected faults of any kind.
func (s Stats) Total() int { return s.Panics + s.CorruptRows + s.WriteFails + s.Cancels }

func (s Stats) String() string {
	return fmt.Sprintf("%d faults (%d panics, %d corrupt rows, %d write fails, %d cancels)",
		s.Total(), s.Panics, s.CorruptRows, s.WriteFails, s.Cancels)
}

// Injector is a seeded fault plan for the analysis pipeline.
type Injector struct {
	cfg Config

	mu    sync.Mutex
	rng   *rand.Rand
	polls int
	stats Stats
}

// New creates an injector from a config.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats returns the counts of faults fired so far.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// decide draws one decision against prob, honoring the fault budget.
// count points at the stat to bump when the fault fires.
func (in *Injector) decide(prob float64, count *int) bool {
	if prob <= 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cfg.MaxFaults > 0 && in.stats.Total() >= in.cfg.MaxFaults {
		return false
	}
	if in.rng.Float64() >= prob {
		return false
	}
	*count++
	return true
}

// Cells wraps a profile cell hook (nil = profile.UTCCells) so that cell
// evaluations panic per the fault plan — the injected stand-in for a bug
// or data-dependent crash inside a parallel worker. The surrounding
// stage must surface it as a typed *par.ShardPanicError, not die.
func (in *Injector) Cells(base profile.CellOf) profile.CellOf {
	if base == nil {
		base = profile.UTCCells()
	}
	return func(unixSec int64) (int, int64) {
		if in.decide(in.cfg.PanicProb, &in.stats.Panics) {
			panic(fmt.Sprintf("chaos: injected worker panic (seed %d)", in.cfg.Seed))
		}
		return base(unixSec)
	}
}

// Corrupt mangles trace CSV content row by row per the fault plan and
// returns the damaged copy plus the number of rows hit. The header is
// never touched (header damage is a fail-fast config error, not a
// quarantinable data fault), and every mangling poisons only its own
// row, rotating through a bad timestamp, a missing field, and
// bare-quote damage.
func (in *Injector) Corrupt(data []byte) ([]byte, int) {
	lines := strings.Split(string(data), "\n")
	hit := 0
	for i := 1; i < len(lines); i++ {
		if lines[i] == "" || !in.decide(in.cfg.CorruptProb, &in.stats.CorruptRows) {
			continue
		}
		switch hit % 3 {
		case 0:
			if user, _, ok := strings.Cut(lines[i], ","); ok {
				lines[i] = user + ",not-a-timestamp"
			} else {
				lines[i] = "not,a,valid,row"
			}
		case 1:
			lines[i] = strings.ReplaceAll(lines[i], ",", ";")
		case 2:
			lines[i] = strings.Replace(lines[i], ",", "\",", 1)
		}
		hit++
	}
	return []byte(strings.Join(lines, "\n")), hit
}

// Hook returns an atomicio fault hook that fails atomic write steps
// per the fault plan.
func (in *Injector) Hook() atomicio.Hook {
	return func(op, path string) error {
		if in.decide(in.cfg.WriteFailProb, &in.stats.WriteFails) {
			return fmt.Errorf("chaos: injected %s failure (seed %d)", op, in.cfg.Seed)
		}
		return nil
	}
}

// Context wraps parent so that Err polls trip an injected cancellation
// on every CancelEvery-th poll, budget permitting — the injected
// stand-in for an operator hitting Ctrl-C mid-stage. Each call starts a
// fresh poll count but draws from the same shared budget, so a retry
// loop eventually gets an uncancelled run.
func (in *Injector) Context(parent context.Context) context.Context {
	if parent == nil {
		parent = context.Background()
	}
	if in.cfg.CancelEvery <= 0 {
		return parent
	}
	return &chaosContext{Context: parent, in: in, done: make(chan struct{})}
}

type chaosContext struct {
	context.Context
	in   *Injector
	once sync.Once
	done chan struct{}
}

func (c *chaosContext) Done() <-chan struct{} { return c.done }

func (c *chaosContext) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
	}
	in := c.in
	in.mu.Lock()
	in.polls++
	trip := in.polls%in.cfg.CancelEvery == 0 &&
		(in.cfg.MaxFaults == 0 || in.stats.Total() < in.cfg.MaxFaults)
	if trip {
		in.stats.Cancels++
	}
	in.mu.Unlock()
	if trip {
		c.once.Do(func() { close(c.done) })
		return context.Canceled
	}
	return c.Context.Err()
}

// TempFiles returns the atomicio temp files left in dir — the invariant
// every test asserts is that there are none, whatever faults fired.
func TempFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var leftovers []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			leftovers = append(leftovers, filepath.Join(dir, e.Name()))
		}
	}
	return leftovers, nil
}

// SameBytes reports whether two files have identical content; a missing
// file is never identical to anything.
func SameBytes(a, b string) (bool, error) {
	da, err := os.ReadFile(a)
	if err != nil {
		return false, err
	}
	db, err := os.ReadFile(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(da, db), nil
}
