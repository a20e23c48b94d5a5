// Command bench is the darkcrowd benchmark: one program for the batch and
// the serving paths. It builds the darkcrowd CLI from the repository it is
// run in, generates its inputs from -seed, drives the CLI as child
// processes for the end-to-end metrics, or hosts the layers in-process
// for the per-layer metrics (-trace 1), checks every output, and prints
// one JSON result as its last line. See README.md; run it with
//
//	bash bench/run.sh --workload batch-twitter --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// workload is one input set and load the benchmark runs.
type workload struct {
	name string
	// crowd names the inputs the traced run feeds the layers.
	crowd string
	run   func(*env) (*result, error)
}

var workloads = []workload{
	{"batch-forums", crowdForums, runBatchForums},
	{"batch-twitter", crowdTwitter, runBatchTwitter},
	{"serve-ingest", crowdTwitter, runServeIngest},
	{"serve-query", crowdForums, runServeQuery},
}

const (
	crowdForums  = "forums"
	crowdTwitter = "twitter"
)

// Input scale: the forum censuses at paper scale and the Table I crowd
// divided by four, as the workloads in README.md describe.
const (
	forumShrink  = 1
	twitterScale = 4
)

// setupReps is how often a run sets up; setup_s is the median.
const setupReps = 3

// runDeadline bounds one run after the CLI is built, so the benchmark
// always exits within three minutes.
const runDeadline = 170 * time.Second

// env is what a workload runs with.
type env struct {
	ctx     context.Context
	seed    uint64
	seconds time.Duration
	// forumShrink and twitterScale divide the input sizes; the smoke test
	// shrinks them.
	forumShrink, twitterScale int
	bin                       string    // the darkcrowd CLI
	dir                       string    // scratch directory, removed after the run
	log                       io.Writer // human-readable report
	spans                     string    // span file of a traced run
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

// result is a run's outcome: its metrics and its checks.
type result struct {
	attempted, failed int
	metrics           []metric
	failures          []string
}

func (r *result) add(m metric) { r.metrics = append(r.metrics, m) }

// check records one correctness or traffic check.
func (r *result) check(e *env, name string, ok bool, format string, args ...any) {
	status := "ok"
	if !ok {
		status = "FAIL"
		r.failures = append(r.failures, name)
	}
	e.logf("check %s %s: %s", name, status, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics from the CLI; 1: per-layer metrics from the layers in-process")
	out := fs.String("out", "", "span file of a traced run (default .bench_build/spans-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "usage: bench --workload {%s} --seed N --seconds S --trace {0|1} [--out FILE]\n", strings.Join(names, "|"))
		return 2
	}
	root, err := os.Getwd()
	if err == nil {
		err = checkRoot(root)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	e := &env{
		seed:         *seed,
		seconds:      time.Duration(*seconds) * time.Second,
		forumShrink:  forumShrink,
		twitterScale: twitterScale,
		log:          stderr,
		spans:        *out,
	}
	if e.spans == "" {
		e.spans = filepath.Join(root, ".bench_build", fmt.Sprintf("spans-%s-%d.json", w.name, e.seed))
	}
	res, err := runWorkload(context.Background(), e, root, filepath.Join(root, ".bench_build"), *w, *traced == 1)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if len(res.failures) > 0 {
		fmt.Fprintf(stderr, "bench: %d check(s) failed: %s\n", len(res.failures), strings.Join(res.failures, ", "))
		return 1
	}
	return 0
}

// checkRoot makes sure the benchmark runs from the repository root.
func checkRoot(root string) error {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil || !strings.HasPrefix(string(mod), "module darkcrowd\n") {
		return errors.New("run from the root of the darkcrowd repository (no go.mod for module darkcrowd here)")
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "darkcrowd")); err != nil {
		return fmt.Errorf("no cmd/darkcrowd to build: %w", err)
	}
	return nil
}

// runWorkload builds the CLI of the repository at root and runs one
// workload in a scratch directory under build, which it removes afterwards.
func runWorkload(ctx context.Context, e *env, root, build string, w workload, traced bool) (*result, error) {
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(build, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e.dir = dir
	bin, took, err := buildCLI(ctx, root, dir)
	if err != nil {
		return nil, err
	}
	e.logf("info build_s %.3f s (go build ./cmd/darkcrowd, not part of setup_s)", took.Seconds())
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	e.ctx, e.bin = ctx, bin
	mode := "end-to-end"
	if traced {
		mode = "traced"
	}
	e.logf("# %s, seed %d, %s, %v measured", w.name, e.seed, mode, e.seconds)
	if traced {
		return runTraced(e, w)
	}
	return w.run(e)
}

// writeResult prints the JSON result line.
func writeResult(w io.Writer, r *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s has no value", m.name)
		}
		metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.failures) == 0, max(r.attempted, 1), r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// repeatSetup sets a workload up setupReps times, each in a fresh
// directory, and keeps the last; release undoes an earlier one. It returns
// the median set-up time, the setup_s metric.
func repeatSetup[T any](e *env, setup func(dir string) (T, error), release func(T)) (T, metric, error) {
	var last T
	took := newSamples(setupReps)
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		if err := os.Mkdir(dir, 0o755); err != nil {
			return last, metric{}, err
		}
		v, err := setup(dir)
		if err != nil {
			return last, metric{}, fmt.Errorf("set-up: %w", err)
		}
		took.addDuration(time.Since(t0), time.Second)
		if i < setupReps-1 {
			release(v)
			if err := os.RemoveAll(dir); err != nil {
				return last, metric{}, err
			}
		}
		last = v
	}
	return last, metric{name: "setup_s", unit: "s", value: took.median(), n: took.n()}, nil
}

// writeFile writes data to dir/name and returns the path.
func writeFile(dir, name string, data []byte) (string, error) {
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, data, 0o644)
}

// report prints every metric line and returns the result.
func report(e *env, workload string, res *result) *result {
	for _, m := range res.metrics {
		e.logf("%s", m.line(workload))
	}
	return res
}
