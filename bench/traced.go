package main

// The traced run: the layers run inside the benchmark's own process and
// every call into a layer's public function is a span. Batch iterations
// call the five stages pipeline.Geolocate runs, then Report.Encode, and
// also the CLI and pipeline.Geolocate as wholes, so the differences are
// named residuals. The serving half drives a pipeline.Daemon configured
// the way `darkcrowd serve` configures it, replays the same posts through
// the ingest sub-layers, and times the same requests over loopback HTTP.
// End-to-end metrics never come from this run.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"darkcrowd"
	"darkcrowd/internal/atomicio"
	"darkcrowd/internal/core/geoloc"
	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/obs"
	"darkcrowd/internal/pipeline"
	"darkcrowd/internal/stats"
	"darkcrowd/internal/trace"
)

// Traced-run sizes.
const (
	batchReps    = 5               // batch iterations over the crowd's traces
	bootReps     = 3               // warm starts of the daemon
	queryPhase   = 2 * time.Second // in-process query mix at the top rate
	compareCalls = 2000            // requests per op in the HTTP comparison
	unexplained  = 0.05            // largest share of the root no span explains
)

// layerUnits lists every per-layer metric with its unit.
var layerUnits = []struct{ name, unit string }{
	{"cli.residual_ms", "ms"},
	{"pipeline.residual_ms", "ms"},
	{"pipeline.report_encode_ms", "ms"},
	{"trace.ingest_csv_ms", "ms"},
	{"trace.bytes_per_post", "B"},
	{"profile.build_ms", "ms"},
	{"profile.polish_ms", "ms"},
	{"profile.polish_iterations", "count"},
	{"profile.polish_removed", "count"},
	{"geoloc.place_users_ms", "ms"},
	{"geoloc.users_placed", "count"},
	{"geoloc.fit_placement_ms", "ms"},
	{"stats.em_components", "count"},
	{"stats.emd_rotations_ns", "ns"},
	{"serve.boot_ms", "ms"},
	{"serve.ingest_ns_per_post", "ns"},
	{"trace.head_append_ns_per_post", "ns"},
	{"profile.accumulate_ns_per_post", "ns"},
	{"serve.decode_ns_per_post", "ns"},
	{"trace.compact_ms", "ms"},
	{"trace.compactions", "count"},
	{"trace.snapshot_write_ms", "ms"},
	{"serve.refit_ms", "ms"},
	{"serve.refits_per_s", "1/s"},
	{"serve.place_ns", "ns"},
	{"geoloc.place_one_ns", "ns"},
	{"serve.place_hit_ratio", "ratio"},
	{"serve.heap_bytes_per_post", "B"},
	{"http.ingest_us", "us"},
	{"http.place_us", "us"},
	{"http.report_us", "us"},
	{"bench.late_p99_ms", "ms"},
	{"bench.backlog_max", "count"},
	{"bench.trace_overhead_pct", "%"},
}

// tracedRun carries one traced run's state.
type tracedRun struct {
	e    *env
	t    *tracer
	root int32
	res  *result
	vals map[string]metric
	ref  string // reference file
	gen  *profile.GenericResult
}

func (r *tracedRun) set(name string, value float64, n int) {
	r.vals[name] = metric{name: name, value: value, n: n}
}

// fail records a failed layer call.
func (r *tracedRun) fail(err error) error {
	r.res.failed++
	return err
}

// loadReference reads the reference the way the CLI's -ref does.
func loadReference(path string) (*profile.GenericResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ref, err := darkcrowd.ReadReference(f)
	if err != nil {
		return nil, err
	}
	return &profile.GenericResult{Generic: ref.Generic, PerRegion: ref.PerRegion, ActiveUsers: ref.ActiveUsers}, nil
}

func runTraced(e *env, w workload) (*result, error) {
	r := &tracedRun{e: e, t: newTracer(), res: &result{}, vals: make(map[string]metric)}
	r.root = r.t.begin("traced."+w.name, -1, 0)
	var crowds []crowd
	var csvs []string
	_, err := r.t.timed("bench.setup", r.root, func(int32) error {
		if w.crowd == crowdForums {
			crowds = forumCrowds(e.seed, e.forumShrink)
		} else {
			crowds = []crowd{twitterCrowd(e.seed, e.twitterScale)}
		}
		var err error
		if r.ref, err = writeReferenceFile(e.dir); err != nil {
			return err
		}
		for i, c := range crowds {
			path, err := writeFile(e.dir, fmt.Sprintf("trace-%d.csv", i), c.csv())
			if err != nil {
				return err
			}
			csvs = append(csvs, path)
		}
		r.gen, err = loadReference(r.ref)
		return err
	})
	if err != nil {
		return nil, err
	}
	kept, err := r.batch(csvs)
	if err != nil {
		return nil, err
	}
	if err := r.serve(mergeCrowds(w.crowd, crowds), kept); err != nil {
		return nil, err
	}
	total := r.t.end(r.root)

	res := r.res
	for _, lu := range layerUnits {
		m, ok := r.vals[lu.name]
		if !ok {
			return nil, fmt.Errorf("traced run measured no %s", lu.name)
		}
		m.unit = lu.unit
		res.add(m)
	}
	r.reconcile(total)
	if err := r.t.write(e.spans, w.name, e.seed); err != nil {
		return nil, err
	}
	e.logf("info spans written to %s (%d spans)", e.spans, len(r.t.spans))
	return report(e, w.name, res), nil
}

// reconcile prints the self time of every layer and named residual and
// fails the run when the root's own, unexplained time exceeds 5%.
func (r *tracedRun) reconcile(total time.Duration) {
	r.e.logf("reconciliation against the root span (%.3f s):", total.Seconds())
	var rootSelf time.Duration
	for _, lt := range selfTimes(r.t.spans) {
		if lt.name == r.t.spans[r.root].Name {
			rootSelf = lt.self
			continue
		}
		r.e.logf("  %-34s %7d calls %10.3f ms self %6.2f%%", lt.name, lt.calls, float64(lt.self)/1e6, 100*float64(lt.self)/float64(total))
	}
	share := float64(rootSelf) / float64(total)
	r.res.check(r.e, "trace.reconciled", share <= unexplained,
		"layers and named residuals explain all but %.2f%% of the root (limit %.0f%%)", share*100, unexplained*100)
}

// chainOut is what one layer-by-layer geolocation produced.
type chainOut struct {
	report     []byte
	took       map[string]time.Duration
	kept       map[string]profile.Profile
	iterations int
	removed    int
	components int
	posts      int
}

// chain geolocates one trace through the layers, in the order and with
// the options pipeline.Geolocate uses for `darkcrowd geolocate -ref`.
func (r *tracedRun) chain(parent int32, path string, data []byte) (*chainOut, error) {
	out := &chainOut{took: make(map[string]time.Duration)}
	var ing *trace.IngestResult
	var profiles map[string]profile.Profile
	var polished *profile.PolishResult
	var placement *geoloc.Placement
	var geo *geoloc.Geolocation
	for _, s := range []struct {
		name string
		f    func() error
	}{
		{"trace.IngestCSV", func() (err error) {
			ing, err = trace.IngestCSV(path, data, trace.IngestOptions{CollectCells: true})
			return err
		}},
		{"profile.BuildUserProfilesFused", func() (err error) {
			profiles, err = profile.BuildUserProfilesFused(ing.Cells, profile.BuildOptions{MinPosts: profile.DefaultMinPosts})
			return err
		}},
		{"profile.Polish", func() (err error) {
			polished, err = profile.Polish(profiles, r.gen.Generic, true)
			return err
		}},
		{"geoloc.PlaceUsers", func() (err error) {
			placement, err = geoloc.PlaceUsers(polished.Kept, r.gen.Generic, geoloc.PlaceOptions{})
			return err
		}},
		{"geoloc.FitPlacement", func() (err error) {
			geo, err = geoloc.FitPlacement(placement, geoloc.GeolocateOptions{})
			return err
		}},
		{"pipeline.Report.Encode", func() (err error) {
			out.report, err = (&pipeline.Report{Geolocation: geo}).Encode()
			return err
		}},
	} {
		r.res.attempted++
		id := r.t.begin(s.name, parent, 0)
		t0 := time.Now()
		err := s.f()
		out.took[s.name] = time.Since(t0)
		r.t.end(id)
		if err != nil {
			return nil, r.fail(fmt.Errorf("%s: %w", s.name, err))
		}
	}
	out.posts = ing.Dataset.NumPosts()
	out.kept, out.iterations, out.removed, out.components = polished.Kept, polished.Iterations, len(polished.Removed), len(geo.Components)
	return out, nil
}

// heapInUse is the live heap after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// batch runs batchReps iterations over the traces and returns the kept
// profiles of the last one.
func (r *tracedRun) batch(csvs []string) (map[string]profile.Profile, error) {
	per := make(map[string]*samples)
	sample := func(name string, v float64) {
		if per[name] == nil {
			per[name] = newSamples(batchReps)
		}
		per[name].add(v)
	}
	loader := func() (*profile.GenericResult, error) { return loadReference(r.ref) }
	var kept map[string]profile.Profile
	identical := true
	for rep := 0; rep < batchReps; rep++ {
		sums := make(map[string]time.Duration)
		var traced, untraced time.Duration
		kept = make(map[string]profile.Profile)
		iterations, removed, components, placed := 0, 0, 0, 0
		for i, csv := range csvs {
			it := r.t.begin("batch.trace", r.root, int64(rep*len(csvs)+i))
			out := filepath.Join(r.e.dir, fmt.Sprintf("report-%d.json", i))
			r.res.attempted++
			id := r.t.begin("cli.geolocate", it, 0)
			u, err := runCLI(r.e.ctx, r.e.bin, "geolocate", "-in", csv, "-ref", r.ref, "-out", out)
			r.t.end(id)
			if err != nil {
				return nil, r.fail(err)
			}
			sums["cli"] += u.wall
			r.res.attempted++
			took, err := r.t.timed("pipeline.Geolocate", it, func(int32) error {
				_, err := pipeline.Geolocate(pipeline.Config{TracePath: csv, Reference: loader, ReferenceID: "file:" + r.ref, MinPosts: profile.DefaultMinPosts})
				return err
			})
			if err != nil {
				return nil, r.fail(err)
			}
			sums["geolocate"] += took
			var cliReport, data []byte
			_, err = r.t.timed("bench.read", it, func(int32) error {
				if cliReport, err = os.ReadFile(out); err == nil {
					data, err = os.ReadFile(csv)
				}
				return err
			})
			if err != nil {
				return nil, err
			}
			layers := r.t.begin("batch.layers", it, 0)
			t0 := time.Now()
			c, err := r.chain(layers, csv, data)
			traced += time.Since(t0)
			r.t.end(layers)
			if err != nil {
				return nil, err
			}
			identical = identical && bytes.Equal(c.report, cliReport)
			for name, d := range c.took {
				sums[name] += d
			}
			// The same chain with span recording off, for the overhead.
			_, err = r.t.timed("bench.untraced_layers", it, func(int32) error {
				r.t.on = false
				defer func() { r.t.on = true }()
				t0 := time.Now()
				_, err := r.chain(-1, csv, data)
				untraced += time.Since(t0)
				return err
			})
			if err != nil {
				return nil, err
			}
			if rep == 0 {
				_, err = r.t.timed("bench.heap", it, func(int32) error {
					before := heapInUse()
					ing, err := trace.IngestCSV(csv, data, trace.IngestOptions{CollectCells: true})
					if err != nil {
						return err
					}
					after := heapInUse()
					sample("trace.bytes_per_post", float64(after-before)/float64(c.posts))
					runtime.KeepAlive(ing)
					return nil
				})
				if err != nil {
					return nil, r.fail(err)
				}
			}
			for id, p := range c.kept {
				kept[id] = p
			}
			iterations += c.iterations
			removed += c.removed
			components += c.components
			placed += len(c.kept)
			r.t.end(it)
		}
		var kernel time.Duration
		calls := 0
		_, err := r.t.timed("stats.EMDCircularAllRotations", r.root, func(int32) error {
			rot, scratch := make([]float64, 24), make([]float64, 48)
			t0 := time.Now()
			for _, p := range kept {
				if _, err := stats.EMDCircularAllRotations(p[:], r.gen.Generic[:], rot, scratch); err != nil {
					return err
				}
				calls++
			}
			kernel = time.Since(t0)
			return nil
		})
		if err != nil {
			return nil, r.fail(err)
		}
		r.res.attempted += calls
		layerSum := sums["trace.IngestCSV"] + sums["profile.BuildUserProfilesFused"] + sums["profile.Polish"] +
			sums["geoloc.PlaceUsers"] + sums["geoloc.FitPlacement"]
		sample("cli.residual_ms", ms(sums["cli"]-sums["geolocate"]-sums["pipeline.Report.Encode"]))
		sample("pipeline.residual_ms", ms(sums["geolocate"]-layerSum))
		sample("pipeline.report_encode_ms", ms(sums["pipeline.Report.Encode"]))
		sample("trace.ingest_csv_ms", ms(sums["trace.IngestCSV"]))
		sample("profile.build_ms", ms(sums["profile.BuildUserProfilesFused"]))
		sample("profile.polish_ms", ms(sums["profile.Polish"]))
		sample("geoloc.place_users_ms", ms(sums["geoloc.PlaceUsers"]))
		sample("geoloc.fit_placement_ms", ms(sums["geoloc.FitPlacement"]))
		sample("stats.emd_rotations_ns", float64(kernel)/float64(max(calls, 1)))
		sample("bench.trace_overhead_pct", 100*(float64(traced)-float64(untraced))/float64(untraced))
		sample("profile.polish_iterations", float64(iterations))
		sample("profile.polish_removed", float64(removed))
		sample("stats.em_components", float64(components))
		sample("geoloc.users_placed", float64(placed))
	}
	for name, s := range per {
		r.set(name, s.median(), s.n())
	}
	r.res.check(r.e, "traced.identical", identical, "the layer-by-layer report is byte-identical to the CLI's, every trace and iteration")
	return kept, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// newDaemon configures a daemon the way `darkcrowd serve -ref -snapshot`
// does, with the registry cmdServe gives it.
func (r *tracedRun) newDaemon(snapshot string) (*pipeline.Daemon, *obs.Registry, error) {
	reg := obs.NewRegistry()
	d, err := pipeline.NewDaemon(pipeline.ServeConfig{
		Reference:     func() (*profile.GenericResult, error) { return loadReference(r.ref) },
		MinPosts:      profile.DefaultMinPosts,
		SnapshotPath:  snapshot,
		CompactEvery:  pipeline.DefaultCompactEvery,
		RefitDebounce: pipeline.DefaultRefitDebounce,
		Obs:           &obs.Observer{Metrics: reg},
	})
	return d, reg, err
}

// serve drives the daemon layers with the crowd.
func (r *tracedRun) serve(c crowd, kept map[string]profile.Profile) error {
	e := r.e
	var csv, base string
	_, err := r.t.timed("bench.setup", r.root, func(int32) error {
		var err error
		if csv, err = writeFile(e.dir, "crowd.csv", c.csv()); err != nil {
			return err
		}
		base = filepath.Join(e.dir, "crowd.dcs")
		_, err = runCLI(e.ctx, e.bin, "snapshot", "-in", csv, "-out", base)
		return err
	})
	if err != nil {
		return err
	}

	// Warm starts from the crowd's snapshot, which Close writes back.
	boot := newSamples(bootReps)
	for i := 0; i < bootReps; i++ {
		var d *pipeline.Daemon
		r.res.attempted += 2
		took, err := r.t.timed("serve.NewDaemon", r.root, func(int32) (err error) {
			d, _, err = r.newDaemon(base)
			return err
		})
		if err != nil {
			return r.fail(err)
		}
		boot.addDuration(took, time.Millisecond)
		if _, err := r.t.timed("serve.Close", r.root, func(int32) error { return d.Close() }); err != nil {
			return r.fail(err)
		}
	}
	r.set("serve.boot_ms", boot.median(), boot.n())

	// A fresh daemon takes the whole crowd from two goroutines, then drains.
	bodies := ingestBodies(c)
	posts := len(c.When)
	before := heapInUse()
	d, reg, err := r.newDaemon(filepath.Join(e.dir, "fresh.dcs"))
	if err != nil {
		return r.fail(err)
	}
	defer d.Close()
	phase := r.t.begin("bench.ingest_phase", r.root, 0)
	var wg sync.WaitGroup
	perPost := make([][]float64, maxSenders) // ns per post, per sender
	errs := make([]error, maxSenders)
	for s := range perPost {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for j, body := range bodies[s] {
				id := r.t.begin("serve.Ingest", phase, int64(j*maxSenders+s))
				t0 := time.Now()
				got, err := d.Ingest(bytes.NewReader(body))
				el := time.Since(t0)
				r.t.end(id)
				lines := bytes.Count(body, []byte{'\n'})
				if err == nil && got.Accepted != lines {
					err = fmt.Errorf("Daemon.Ingest accepted %d of %d lines", got.Accepted, lines)
				}
				if err != nil {
					errs[s] = err
					return
				}
				perPost[s] = append(perPost[s], float64(el)/float64(lines))
			}
		}(s)
	}
	wg.Wait()
	r.t.end(phase)
	if err := errors.Join(errs...); err != nil {
		return r.fail(err)
	}
	ingest := newSamples(len(perPost[0]) + len(perPost[1]))
	for _, v := range append(perPost[0], perPost[1]...) {
		ingest.add(v)
	}
	r.res.attempted += ingest.n()
	r.set("serve.ingest_ns_per_post", ingest.median(), ingest.n())

	r.res.attempted += 2
	var drained *pipeline.ServeReport
	refit, err := r.t.timed("serve.Report", r.root, func(int32) (err error) {
		drained, err = d.Report()
		return err
	})
	if err != nil {
		return r.fail(err)
	}
	r.set("serve.refit_ms", ms(refit), 1)
	var after uint64
	r.t.timed("bench.heap", r.root, func(int32) error {
		after = heapInUse()
		return nil
	})
	r.set("serve.heap_bytes_per_post", float64(after-min(before, after))/float64(posts), 1)
	var batch *pipeline.Result
	_, err = r.t.timed("pipeline.Geolocate", r.root, func(int32) (err error) {
		batch, err = pipeline.Geolocate(pipeline.Config{
			TracePath: csv, MinPosts: profile.DefaultMinPosts, ReferenceID: "file:" + r.ref,
			Reference: func() (*profile.GenericResult, error) { return loadReference(r.ref) },
		})
		return err
	})
	if err != nil {
		return r.fail(err)
	}
	a, errA := (&pipeline.Report{Geolocation: drained.Geo}).Encode()
	b, errB := (&pipeline.Report{Geolocation: batch.Geo}).Encode()
	r.res.check(e, "traced.drain_identical", errA == nil && errB == nil && bytes.Equal(a, b),
		"the drained daemon's geolocation is byte-identical to pipeline.Geolocate's over the same posts")

	if err := r.query(d, reg, c); err != nil {
		return err
	}
	if err := r.kernels(kept); err != nil {
		return err
	}
	if err := r.replay(c); err != nil {
		return err
	}
	if err := r.http(d, c, bodies[0]); err != nil {
		return err
	}
	r.res.attempted++
	if _, err := r.t.timed("serve.Close", r.root, func(int32) error { return d.Close() }); err != nil {
		return r.fail(err)
	}
	return nil
}

// query runs the query mix in-process at the top rate for queryPhase.
func (r *tracedRun) query(d *pipeline.Daemon, reg *obs.Registry, c crowd) error {
	rng := rand.New(rand.NewPCG(r.e.seed, 300))
	nbodies := 0
	sched := querySchedule(rng, queryRates[len(queryRates)-1], queryPhase, len(c.Users), &nbodies)
	bodies := trickleBodies(rng, c, nbodies)
	names := [numOps]string{"serve.Place", "serve.Ingest", "serve.Healthz", "serve.Report"}
	phase := r.t.begin("bench.query_phase", r.root, 0)
	before := reg.Snapshot().Counters
	t0 := time.Now()
	out, backlog := openLoop(sched, func(_ int, a arrival) bool {
		id := r.t.begin(names[a.kind], phase, int64(a.due))
		defer r.t.end(id)
		switch a.kind {
		case opPlace:
			_, ok := d.Place(c.Users[a.arg].ID)
			return ok
		case opIngest:
			got, err := d.Ingest(bytes.NewReader(bodies[a.arg]))
			return err == nil && got.Accepted == trickleLines
		case opHealthz:
			return d.Healthz().Status == "ok"
		default:
			_, err := d.Report()
			return err == nil
		}
	})
	window := time.Since(t0)
	r.t.end(phase)
	after := reg.Snapshot().Counters
	late := newSamples(len(out))
	failed := 0
	for _, o := range out {
		if !o.ok {
			failed++
		}
		late.addDuration(o.late, time.Millisecond)
	}
	r.res.attempted += len(out)
	r.res.failed += failed
	if failed > 0 {
		return fmt.Errorf("in-process query mix: %d of %d requests failed", failed, len(out))
	}
	place := newSamples(len(out))
	for _, s := range r.t.spans[phase+1:] {
		if s.Parent == phase && s.Name == "serve.Place" {
			place.add(float64(s.End - s.Start))
		}
	}
	cached := after["serve.placements_cached"] - before["serve.placements_cached"]
	fresh := after["serve.placements_fresh"] - before["serve.placements_fresh"]
	r.set("serve.place_ns", place.median(), place.n())
	r.set("serve.place_hit_ratio", float64(cached)/float64(max(cached+fresh, 1)), int(cached+fresh))
	r.set("serve.refits_per_s", float64(after["serve.refits"]-before["serve.refits"])/window.Seconds(), 1)
	r.set("bench.late_p99_ms", late.quantile(0.99), late.n())
	r.set("bench.backlog_max", float64(backlog), len(out))
	return nil
}

// kernels times the single-user placement kernel over the kept profiles.
func (r *tracedRun) kernels(kept map[string]profile.Profile) error {
	calls := 0
	took, err := r.t.timed("geoloc.PlaceOneMargin", r.root, func(int32) error {
		for _, p := range kept {
			if _, _, err := geoloc.PlaceOneMargin(p, r.gen.Generic, geoloc.PlaceOptions{}); err != nil {
				return err
			}
			calls++
		}
		return nil
	})
	r.res.attempted += calls
	if err != nil {
		return r.fail(err)
	}
	r.set("geoloc.place_one_ns", float64(took)/float64(max(calls, 1)), calls)
	return nil
}

// replay feeds the crowd's posts, in time order, through the two
// structures Daemon.Ingest writes — the sharded head with a fold and a
// snapshot write every DefaultCompactEvery posts, and the per-shard
// accumulators — so that the rest of the ingest time is named decode.
func (r *tracedRun) replay(c crowd) error {
	ids := make([][]byte, len(c.Users))
	for i := range c.Users {
		ids[i] = []byte(c.Users[i].ID)
	}
	head := trace.NewShardedHead("replay", nil, 0)
	var appendTime time.Duration
	compact, write := newSamples(16), newSamples(16)
	snap := filepath.Join(r.e.dir, "replay.dcs")
	for from := 0; from < len(c.When); from += pipeline.DefaultCompactEvery {
		to := min(from+pipeline.DefaultCompactEvery, len(c.When))
		took, err := r.t.timed("trace.ShardedHead.AppendBytes", r.root, func(int32) error {
			for i := from; i < to; i++ {
				if err := head.AppendBytes(ids[c.Who[i]], c.When[i]); err != nil {
					return err
				}
			}
			return nil
		})
		r.res.attempted += to - from
		if err != nil {
			return r.fail(err)
		}
		appendTime += took
		if to-from < pipeline.DefaultCompactEvery {
			break // the daemon folds only full tails
		}
		var ds *trace.Dataset
		took, _ = r.t.timed("trace.ShardedHead.Compact", r.root, func(int32) error {
			ds = head.Compact()
			return nil
		})
		compact.addDuration(took, time.Millisecond)
		r.res.attempted += 2
		took, err = r.t.timed("trace.Dataset.WriteSnapshot", r.root, func(int32) error {
			return atomicio.WriteFile(snap, ds.WriteSnapshot)
		})
		if err != nil {
			return r.fail(err)
		}
		write.addDuration(took, time.Millisecond)
	}
	accs := make([]*profile.Accumulator, head.NumShards())
	for i := range accs {
		accs[i] = profile.NewAccumulator(profile.DefaultMinPosts)
	}
	accTime, _ := r.t.timed("profile.Accumulator.AddBytes", r.root, func(int32) error {
		for i, t := range c.When {
			id := ids[c.Who[i]]
			accs[head.ShardOf(id)].AddBytes(id, t)
		}
		return nil
	})
	r.res.attempted += len(c.When)
	posts := float64(len(c.When))
	appendNs, accNs := float64(appendTime)/posts, float64(accTime)/posts
	r.set("trace.head_append_ns_per_post", appendNs, len(c.When))
	r.set("profile.accumulate_ns_per_post", accNs, len(c.When))
	r.set("serve.decode_ns_per_post", r.vals["serve.ingest_ns_per_post"].value-appendNs-accNs, len(c.When))
	r.set("trace.compactions", float64(compact.n()), compact.n())
	r.set("trace.compact_ms", orZero(compact.median()), compact.n())
	r.set("trace.snapshot_write_ms", orZero(write.median()), write.n())
	return nil
}

// orZero maps the NaN of an empty sample to 0: a crowd smaller than one
// fold has no compactions to time.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// http times the same requests in-process and over loopback HTTP; the
// difference of the medians is what transport and encoding add.
func (r *tracedRun) http(d *pipeline.Daemon, c crowd, bodies [][]byte) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: d.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	url := "http://" + ln.Addr().String()
	client := newClient()
	defer client.CloseIdleConnections()
	var buf bytes.Buffer
	rng := rand.New(rand.NewPCG(r.e.seed, 400))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(c.Users)-1))
	n := min(len(bodies)/2, compareCalls/10)
	type pair struct {
		name     string
		calls    int
		inProc   func(i int) error
		overHTTP func(i int) error
	}
	status := func(s int, err error) error {
		if err == nil && s != http.StatusOK {
			err = fmt.Errorf("status %d", s)
		}
		return err
	}
	for _, p := range []pair{
		{"ingest", n,
			func(i int) error { _, err := d.Ingest(bytes.NewReader(bodies[i])); return err },
			func(i int) error { return status(call(client, http.MethodPost, url+"/ingest", bodies[n+i], &buf)) }},
		{"place", compareCalls,
			func(int) error { d.Place(c.Users[zipf.Uint64()].ID); return nil },
			func(int) error {
				return status(call(client, http.MethodGet, url+"/place/"+c.Users[zipf.Uint64()].ID, nil, &buf))
			}},
		{"report", compareCalls / 100,
			func(int) error { _, err := d.Report(); return err },
			func(int) error { return status(call(client, http.MethodGet, url+"/report", nil, &buf)) }},
	} {
		if p.name == "report" {
			// Refit once so that both sides read the same fresh report.
			r.res.attempted++
			if _, err := r.t.timed("serve.Report", r.root, func(int32) error { _, err := d.Report(); return err }); err != nil {
				return r.fail(err)
			}
		}
		in, over := newSamples(p.calls), newSamples(p.calls)
		for i := 0; i < p.calls; i++ {
			r.res.attempted += 2
			took, err := r.t.timed("serve."+p.name+".inproc", r.root, func(int32) error { return p.inProc(i) })
			if err != nil {
				return r.fail(err)
			}
			in.addDuration(took, time.Microsecond)
			took, err = r.t.timed("http."+p.name, r.root, func(int32) error { return p.overHTTP(i) })
			if err != nil {
				return r.fail(fmt.Errorf("%s over HTTP: %w", p.name, err))
			}
			over.addDuration(took, time.Microsecond)
		}
		r.set("http."+p.name+"_us", over.median()-in.median(), over.n())
	}
	return nil
}
