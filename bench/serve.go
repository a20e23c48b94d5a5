package main

// The serving workloads drive a `darkcrowd serve` child over loopback HTTP.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// ingestBatch is the number of NDJSON lines per /ingest request.
const ingestBatch = 256

// mergeCrowds joins crowds with distinct users into one, posts in time order.
func mergeCrowds(name string, cs []crowd) crowd {
	out := crowd{Name: name}
	var idx []int // next post of each crowd
	base := make([]int32, len(cs))
	for i, c := range cs {
		base[i] = int32(len(out.Users))
		out.Users = append(out.Users, c.Users...)
		idx = append(idx, 0)
	}
	for {
		best := -1
		for i, c := range cs {
			if idx[i] < len(c.When) && (best < 0 || c.When[idx[i]] < cs[best].When[idx[best]]) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out.When = append(out.When, cs[best].When[idx[best]])
		out.Who = append(out.Who, base[best]+cs[best].Who[idx[best]])
		idx[best]++
	}
}

// ingestBodies splits a crowd's users into two disjoint halves and renders
// each half's posts, in time order, as NDJSON bodies of ingestBatch lines.
func ingestBodies(c crowd) [maxSenders][][]byte {
	var out [maxSenders][][]byte
	var cur [maxSenders][]byte
	var lines [maxSenders]int
	for i, t := range c.When {
		h := int(c.Who[i]) % maxSenders
		cur[h] = appendNDJSON(cur[h], c.Users[c.Who[i]].ID, t)
		if lines[h]++; lines[h] == ingestBatch {
			out[h] = append(out[h], cur[h])
			cur[h], lines[h] = nil, 0
		}
	}
	for h := range cur {
		if lines[h] > 0 {
			out[h] = append(out[h], cur[h])
		}
	}
	return out
}

// ingestAck is the part of an /ingest response the benchmark checks.
type ingestAck struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
}

// serveReport is the part of a /report response the benchmark checks.
type serveReport struct {
	Posts         int             `json:"posts"`
	ActiveUsers   int             `json:"active_users"`
	PolishRemoved int             `json:"polish_removed"`
	Geo           json.RawMessage `json:"geo"`
}

// healthPosts reads the daemon's post count from /healthz.
func healthPosts(c *http.Client, url string, buf *bytes.Buffer) (int, error) {
	status, err := call(c, http.MethodGet, url+"/healthz", nil, buf)
	if err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("GET /healthz: status %d: %v", status, err)
	}
	var h struct {
		Posts int `json:"posts"`
	}
	if err := json.Unmarshal(buf.Bytes(), &h); err != nil {
		return 0, fmt.Errorf("decode /healthz: %w", err)
	}
	return h.Posts, nil
}

// ingestInputs are the serve-ingest workload's files and request bodies.
type ingestInputs struct {
	crowd  crowd
	bodies [maxSenders][][]byte
	csv    string
	ref    string
	dir    string
}

// runServeIngest measures passes for e.seconds. Each pass boots a fresh
// daemon with a snapshot path, streams the Table I crowd into it from two
// closed-loop connections, then drains it with one GET /report.
func runServeIngest(e *env) (*result, error) {
	res := &result{}
	in, setup, err := repeatSetup(e, func(dir string) (*ingestInputs, error) {
		in := &ingestInputs{crowd: twitterCrowd(e.seed, e.twitterScale), dir: dir}
		in.bodies = ingestBodies(in.crowd)
		var err error
		if in.ref, err = writeReferenceFile(dir); err != nil {
			return nil, err
		}
		in.csv, err = writeFile(dir, "twitter.csv", in.crowd.csv())
		return in, err
	}, func(*ingestInputs) {})
	if err != nil {
		return nil, err
	}
	// The batch report the drained daemon must reproduce. It is computed
	// once and is not part of set-up.
	oraclePath := filepath.Join(in.dir, "batch.json")
	if _, err := runCLI(e.ctx, e.bin, "geolocate", "-in", in.csv, "-ref", in.ref, "-out", oraclePath); err != nil {
		return nil, err
	}
	oracle, err := os.ReadFile(oraclePath)
	if err != nil {
		return nil, err
	}

	posts := len(in.crowd.When)
	lat := newSamples(4096 * 64)
	passLat, rate, drain, cpu := newSamples(64), newSamples(64), newSamples(64), newSamples(64)
	var rss int64
	var last serveReport
	identical, counted := true, true
	client := newClient()
	defer client.CloseIdleConnections()
	start := time.Now()
	for drain.n() == 0 || time.Since(start) < e.seconds {
		p, err := ingestPass(e, client, in, res)
		if err != nil {
			return nil, err
		}
		for _, v := range p.lat.v {
			lat.add(v)
		}
		passLat.add(p.lat.median())
		rate.add(float64(posts) / p.streaming.Seconds())
		drain.addDuration(p.drain, time.Millisecond)
		cpu.add(float64(p.cpu) / float64(time.Millisecond) / float64(p.requests))
		rss = max(rss, p.rss)
		identical = identical && sameJSON(p.report.Geo, oracle)
		counted = counted && p.health == posts && p.report.Posts == posts
		last = p.report
	}
	res.add(setup)
	res.add(metric{"latency_ms", "ms", passLat.min(), lat.n()})
	res.add(metric{"report_ms", "ms", drain.min(), drain.n()})
	res.add(metric{"cpu_ms_per_op", "ms", cpu.min(), cpu.n()})
	res.add(metric{"peak_rss_mb", "MB", float64(rss) / (1 << 20), drain.n()})
	e.logf("info serve-ingest ingest_p50_ms %.6g ms (n=%d)", lat.median(), lat.n())
	if label, v, ok := lat.tail(); ok {
		e.logf("info serve-ingest ingest_%s_ms %.6g ms (n=%d)", label, v, lat.n())
	}
	e.logf("info serve-ingest drain_report_p50_ms %.6g ms (n=%d)", drain.median(), drain.n())
	e.logf("info serve-ingest ingest_posts_per_s %.6g posts/s (n=%d)", rate.median(), rate.n())
	res.check(e, "drain.identical", identical, "every drained /report geo is byte-identical to batch geolocate's (%d passes)", drain.n())
	res.check(e, "healthz.posts", counted, "/healthz and /report count the %d posts sent, every pass", posts)
	s := statsOf("twitter", in.crowd)
	res.check(e, "report.active", last.ActiveUsers+last.PolishRemoved == s.active,
		"report has %d active + %d removed users; %d users are over the threshold", last.ActiveUsers, last.PolishRemoved, s.active)
	checkTraffic(e, res, crowdTwitter, s, last.PolishRemoved)
	return report(e, "serve-ingest", res), nil
}

// passResult is what one serve-ingest pass measured.
type passResult struct {
	streaming time.Duration // first POST to last ack
	drain     time.Duration
	cpu       time.Duration // daemon CPU over the pass
	requests  int           // POSTs acknowledged
	rss       int64         // the daemon's peak while it served
	health    int
	report    serveReport
	lat       *samples // per POST, ms
}

func ingestPass(e *env, client *http.Client, in *ingestInputs, res *result) (*passResult, error) {
	snap := filepath.Join(e.dir, "pass.dcs")
	if err := os.Remove(snap); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	d, err := startDaemon(e.ctx, e.bin, "-ref", in.ref, "-snapshot", snap)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	p := &passResult{lat: newSamples(len(in.bodies[0]) + len(in.bodies[1]))}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	t0 := time.Now()
	for s := 0; s < maxSenders; s++ {
		wg.Add(1)
		go func(bodies [][]byte) {
			defer wg.Done()
			var buf bytes.Buffer
			mine := make([]time.Duration, 0, len(bodies))
			var err error
			for _, body := range bodies {
				sent := time.Now()
				var status int
				status, err = call(client, http.MethodPost, d.url+"/ingest", body, &buf)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("POST /ingest: status %d: %s", status, buf.Bytes())
				}
				var ack ingestAck
				if err == nil {
					err = json.Unmarshal(buf.Bytes(), &ack)
				}
				if err == nil && (ack.Accepted != bytes.Count(body, []byte{'\n'}) || ack.Rejected != 0) {
					err = fmt.Errorf("POST /ingest accepted %d, rejected %d", ack.Accepted, ack.Rejected)
				}
				if err != nil {
					break
				}
				mine = append(mine, time.Since(sent))
			}
			mu.Lock()
			defer mu.Unlock()
			res.attempted += len(mine)
			p.requests += len(mine)
			for _, l := range mine {
				p.lat.addDuration(l, time.Millisecond)
			}
			if err != nil {
				res.attempted++
				res.failed++
				if firstErr == nil {
					firstErr = err
				}
			}
		}(in.bodies[s])
	}
	wg.Wait()
	p.streaming = time.Since(t0)
	if firstErr != nil {
		return nil, firstErr
	}
	var buf bytes.Buffer
	res.attempted += 2
	t1 := time.Now()
	status, err := call(client, http.MethodGet, d.url+"/report", nil, &buf)
	p.drain = time.Since(t1)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET /report: status %d", status)
	}
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), &p.report)
	}
	if err == nil {
		p.health, err = healthPosts(client, d.url, &buf)
	}
	if err != nil {
		res.failed++
		return nil, err
	}
	if p.cpu, err = d.cpu(); err != nil {
		return nil, err
	}
	if p.rss, err = d.peakRSS(); err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	return p, nil
}

// queryRates are the three fixed open-loop rates, in requests per second:
// 20%, 40% and 70% of the query mix's closed-loop capacity over two
// connections, 14k req/s at seed 1 on a 2-core x86-64 VM, then frozen.
var queryRates = [3]float64{2800, 5600, 9800}

// sloP99 is the /place latency limit that query_rps_under_slo applies.
const sloP99 = 5 * time.Millisecond

// Bands for the serve-query self-check, fixed from seed 1: 0.986 of the
// placements come from the zone cache, and every /report poll refits.
var (
	hitRatioBand  = [2]float64{0.95, 1}
	refitRateBand = [2]float64{1.5, 2.5}
)

// queryInputs are the serve-query workload's inputs and its warm daemon.
type queryInputs struct {
	crowd  crowd
	d      *daemon
	phases [len(queryRates)][]arrival
	bodies [][]byte
	// removed counts the users polish dropped from the warm-up report.
	removed int
}

// runServeQuery warm-starts a daemon from a snapshot of the five forum
// crowds and drives the query mix at each fixed rate for a third of
// e.seconds.
func runServeQuery(e *env) (*result, error) {
	res := &result{}
	client := newClient()
	defer client.CloseIdleConnections()
	in, setup, err := repeatSetup(e, func(dir string) (*queryInputs, error) {
		return setupQuery(e, client, dir)
	}, func(in *queryInputs) { in.d.kill() })
	if err != nil {
		return nil, err
	}
	defer in.d.kill()
	d := in.d
	var metrics0, metrics1 map[string]int64
	var bufs [maxSenders]bytes.Buffer
	if metrics0, err = daemonCounters(client, d.url, &bufs[0]); err != nil {
		return nil, err
	}
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	var acked [maxSenders]int
	do := func(s int, a arrival) bool {
		var status int
		var err error
		switch a.kind {
		case opPlace:
			status, err = call(client, http.MethodGet, d.url+"/place/"+in.crowd.Users[a.arg].ID, nil, &bufs[s])
		case opIngest:
			status, err = call(client, http.MethodPost, d.url+"/ingest", in.bodies[a.arg], &bufs[s])
			if err == nil && status == http.StatusOK {
				acked[s] += trickleLines
			}
		case opHealthz:
			status, err = call(client, http.MethodGet, d.url+"/healthz", nil, &bufs[s])
		case opReport:
			status, err = call(client, http.MethodGet, d.url+"/report", nil, &bufs[s])
		}
		return err == nil && status == http.StatusOK
	}
	var place [len(queryRates)]*samples
	var best float64
	reports := newSamples(1024)
	underSLO := 0.0
	requests := 0
	t0 := time.Now()
	for i, sched := range in.phases {
		out, backlog := openLoop(sched, do)
		place[i] = newSamples(len(out))
		late := newSamples(len(out))
		var tailLate time.Duration
		for j, o := range out {
			res.attempted++
			if !o.ok {
				res.failed++
				continue
			}
			requests++
			late.addDuration(o.late, time.Millisecond)
			if j >= len(out)*9/10 {
				tailLate += o.late
			}
			switch sched[j].kind {
			case opPlace:
				place[i].addDuration(o.lat, time.Millisecond)
			case opReport:
				reports.addDuration(o.lat, time.Millisecond)
			}
		}
		if i == 0 {
			best = bestWindow(sched, out)
		}
		p99 := place[i].quantile(0.99)
		keepsUp := tailLate/time.Duration(len(out)-len(out)*9/10) < time.Millisecond
		if p99 <= float64(sloP99)/float64(time.Millisecond) && keepsUp {
			underSLO = queryRates[i]
		}
		e.logf("info serve-query rate_%d %.0f req/s: place p50 %.4g ms p99 %.4g ms (n=%d), late p99 %.4g ms, backlog max %d, keeps up %v",
			i+1, queryRates[i], place[i].median(), p99, place[i].n(), late.quantile(0.99), backlog, keepsUp)
	}
	window := time.Since(t0)
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	if metrics1, err = daemonCounters(client, d.url, &bufs[0]); err != nil {
		return nil, err
	}
	health, err := healthPosts(client, d.url, &bufs[0])
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSS()
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	top := place[len(place)-1]
	res.add(setup)
	res.add(metric{"latency_ms", "ms", best, place[0].n()})
	res.add(metric{"report_ms", "ms", reports.median(), reports.n()})
	res.add(metric{"cpu_ms_per_op", "ms", float64(cpu1-cpu0) / float64(time.Millisecond) / float64(requests), requests})
	res.add(metric{"peak_rss_mb", "MB", float64(rss) / (1 << 20), requests})
	if label, v, ok := top.tail(); ok {
		e.logf("info serve-query place_%s_ms %.6g ms (n=%d)", label, v, top.n())
	}
	e.logf("info serve-query report_min_ms %.6g ms (n=%d)", reports.min(), reports.n())
	e.logf("info serve-query query_rps_under_slo %.0f req/s (p99 <= %v, no growing backlog)", underSLO, sloP99)

	cached := metrics1["serve.placements_cached"] - metrics0["serve.placements_cached"]
	fresh := metrics1["serve.placements_fresh"] - metrics0["serve.placements_fresh"]
	hit := float64(cached) / float64(max(cached+fresh, 1))
	refits := float64(metrics1["serve.refits"]-metrics0["serve.refits"]) / window.Seconds()
	res.check(e, "traffic.hit_ratio", hit >= hitRatioBand[0] && hit <= hitRatioBand[1],
		"/place cache-hit ratio %.4f (%d cached, %d fresh), band %v", hit, cached, fresh, hitRatioBand)
	res.check(e, "traffic.refits", refits >= refitRateBand[0] && refits <= refitRateBand[1],
		"%.2f refits/s, band %v", refits, refitRateBand)
	res.check(e, "requests", res.failed == 0, "%d of %d requests failed", res.failed, res.attempted)
	want := len(in.crowd.When) + acked[0] + acked[1]
	res.check(e, "healthz.posts", health == want, "/healthz counts %d posts; %d were sent", health, want)
	checkTraffic(e, res, crowdForums, statsOf("forums", in.crowd), in.removed)
	return report(e, "serve-query", res), nil
}

// trickleBodies renders n trickle /ingest bodies, each trickleLines posts
// of a random known user, drawn from that user's rhythm.
func trickleBodies(r *rand.Rand, c crowd, n int) [][]byte {
	bodies := make([][]byte, n)
	for b := range bodies {
		u := &c.Users[r.IntN(len(c.Users))]
		for _, t := range appendPosts(r, nil, u, trickleLines) {
			bodies[b] = appendNDJSON(bodies[b], u.ID, t)
		}
	}
	return bodies
}

// bestWindow is the lowest median /place latency of one /report poll
// window of a phase. The latency metric reads it at the lowest rate: near
// saturation, a machine slowed by its neighbours queues requests, so
// latency at the top rate moves far more than the slowdown itself.
func bestWindow(sched []arrival, out []outcome) float64 {
	windows := make(map[time.Duration]*samples)
	for j, o := range out {
		if sched[j].kind != opPlace || !o.ok {
			continue
		}
		w := sched[j].due / reportInterval
		if windows[w] == nil {
			windows[w] = newSamples(0)
		}
		windows[w].addDuration(o.lat, time.Millisecond)
	}
	best := math.Inf(1)
	for _, w := range windows {
		if w.n() >= 2*minBeyond {
			best = min(best, w.median())
		}
	}
	return best
}

// setupQuery generates the forum crowds, snapshots them with the CLI,
// boots a daemon warm from the snapshot, fits the first report, and draws
// the request schedules.
func setupQuery(e *env, client *http.Client, dir string) (*queryInputs, error) {
	in := &queryInputs{crowd: mergeCrowds("forums", forumCrowds(e.seed, e.forumShrink))}
	ref, err := writeReferenceFile(dir)
	if err != nil {
		return nil, err
	}
	csv, err := writeFile(dir, "forums.csv", in.crowd.csv())
	if err != nil {
		return nil, err
	}
	snap := filepath.Join(dir, "forums.dcs")
	if _, err := runCLI(e.ctx, e.bin, "snapshot", "-in", csv, "-out", snap); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewPCG(e.seed, 200))
	phase := e.seconds / time.Duration(len(queryRates))
	nbodies := 0
	for i, rate := range queryRates {
		in.phases[i] = querySchedule(r, rate, phase, len(in.crowd.Users), &nbodies)
	}
	in.bodies = trickleBodies(r, in.crowd, nbodies)
	if in.d, err = startDaemon(e.ctx, e.bin, "-ref", ref, "-snapshot", snap); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	status, err := call(client, http.MethodGet, in.d.url+"/report", nil, &buf)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	var rep serveReport
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), &rep)
	}
	if err != nil {
		in.d.kill()
		return nil, fmt.Errorf("warm-up GET /report: %w", err)
	}
	in.removed = rep.PolishRemoved
	return in, nil
}

// daemonCounters reads the daemon's counters from /metrics.
func daemonCounters(c *http.Client, url string, buf *bytes.Buffer) (map[string]int64, error) {
	status, err := call(c, http.MethodGet, url+"/metrics", nil, buf)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d: %v", status, err)
	}
	var m struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return m.Counters, nil
}
