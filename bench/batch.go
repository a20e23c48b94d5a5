package main

// The batch workloads: each iteration runs `darkcrowd geolocate -ref -out`
// once per trace of the workload, one process at a time, and times the
// processes.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// batchInputs are a batch workload's files and the census of each trace.
type batchInputs struct {
	stats []crowdStats
	csvs  []string
	ref   string
}

func writeBatchInputs(dir string, crowds []crowd) (*batchInputs, error) {
	in := &batchInputs{}
	var err error
	if in.ref, err = writeReferenceFile(dir); err != nil {
		return nil, err
	}
	for i, c := range crowds {
		path, err := writeFile(dir, fmt.Sprintf("trace-%d.csv", i), c.csv())
		if err != nil {
			return nil, err
		}
		in.csvs = append(in.csvs, path)
		in.stats = append(in.stats, statsOf(c.Name, c))
	}
	return in, nil
}

func runBatchForums(e *env) (*result, error) {
	return runBatch(e, "batch-forums", func() []crowd { return forumCrowds(e.seed, e.forumShrink) }, checkForums)
}

func runBatchTwitter(e *env) (*result, error) {
	return runBatch(e, "batch-twitter", func() []crowd { return []crowd{twitterCrowd(e.seed, e.twitterScale)} }, checkTwitter)
}

// runBatch measures iterations for e.seconds: the wall time of every trace
// geolocated once, the wall time of each geolocate, the CPU time of an
// iteration's processes and their largest resident set.
func runBatch(e *env, name string, gen func() []crowd, checkOutputs func(*env, *result, []crowdStats, [][]byte)) (*result, error) {
	res := &result{}
	in, setup, err := repeatSetup(e, func(dir string) (*batchInputs, error) {
		return writeBatchInputs(dir, gen())
	}, func(*batchInputs) {})
	if err != nil {
		return nil, err
	}
	// The crowds are on disk and garbage now; see resetPeakRSS.
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	iter, each, cpu := newSamples(4096), newSamples(4096), newSamples(4096)
	var rss int64
	golden := make([][]byte, len(in.csvs))
	identical := true
	start := time.Now()
	for iter.n() == 0 || time.Since(start) < e.seconds {
		var wall, used time.Duration
		traces := newSamples(len(in.csvs))
		for i, csv := range in.csvs {
			out := filepath.Join(e.dir, fmt.Sprintf("report-%d.json", i))
			res.attempted++
			u, err := runCLI(e.ctx, e.bin, "geolocate", "-in", csv, "-ref", in.ref, "-out", out)
			if err != nil {
				res.failed++
				return nil, err
			}
			wall += u.wall
			used += u.cpu
			rss = max(rss, u.maxRSS)
			traces.addDuration(u.wall, time.Millisecond)
			data, err := os.ReadFile(out)
			if err != nil {
				return nil, err
			}
			if golden[i] == nil {
				golden[i] = data
			} else if !bytes.Equal(data, golden[i]) {
				identical = false
			}
		}
		iter.addDuration(wall, time.Millisecond)
		each.add(traces.median())
		cpu.addDuration(used, time.Millisecond)
	}
	res.add(setup)
	res.add(metric{"latency_ms", "ms", iter.min(), iter.n()})
	res.add(metric{"report_ms", "ms", each.min(), res.attempted})
	res.add(metric{"cpu_ms_per_op", "ms", cpu.min(), cpu.n()})
	res.add(metric{"peak_rss_mb", "MB", float64(rss) / (1 << 20), res.attempted})
	own, err := peakRSS("self")
	if err != nil {
		return nil, err
	}
	// A child's max-RSS is at least the benchmark's peak at the fork, so
	// the number is the child's own only while it is the larger.
	e.logf("info %s own_peak_rss_mb %.4g MB, below the children's %.4g MB: %v", name, float64(own)/(1<<20), float64(rss)/(1<<20), own < rss)
	e.logf("info %s iteration_p50_ms %.6g ms (n=%d)", name, iter.median(), iter.n())
	if label, v, ok := iter.tail(); ok {
		e.logf("info %s iteration_%s_ms %.6g ms (n=%d)", name, label, v, iter.n())
	}
	res.check(e, "reports.identical", identical, "%d iterations of %d trace(s) wrote byte-identical reports", iter.n(), len(in.csvs))
	checkOutputs(e, res, in.stats, golden)
	return report(e, name, res), nil
}

// checkForums checks each forum's mixture against its census.
func checkForums(e *env, res *result, stats []crowdStats, reports [][]byte) {
	removed := 0
	for i, s := range stats {
		r, err := decodeReport(reports[i])
		if err == nil {
			err = componentsMatch(forumMixes[i], r)
			removed += s.active - len(r.Placement.Assignments)
		}
		res.check(e, "components."+fmt.Sprint(i), err == nil, "%s: %v", s.name, errText(err, "every component within a zone of the census regions"))
	}
	checkTraffic(e, res, crowdForums, total("forums", stats), removed)
}

// checkTwitter checks the placement against the users' true zones.
func checkTwitter(e *env, res *result, stats []crowdStats, reports [][]byte) {
	r, err := decodeReport(reports[0])
	var share float64
	var n int
	if err == nil {
		share, n, err = placementAccuracy(r)
	}
	res.check(e, "placement.accuracy", err == nil && share >= accuracyFloor,
		"%s; %.2f%% of %d placed regular users within a zone of their true zone, floor %.0f%%",
		errText(err, "report decoded"), share*100, n, accuracyFloor*100)
	if err == nil {
		checkTraffic(e, res, crowdTwitter, stats[0], stats[0].active-len(r.Placement.Assignments))
	}
}

func errText(err error, ok string) string {
	if err != nil {
		return err.Error()
	}
	return ok
}
