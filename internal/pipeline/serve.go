// The streaming half of the pipeline: a long-running geolocation daemon.
// The batch path (Geolocate) is load → profile → place → fit over a frozen
// trace; Daemon runs the same deterministic stages continuously over a
// live post stream. The state split mirrors the storage design: an
// immutable columnar base (trace.ShardedHead's compacted Dataset,
// checkpointed to a .dcs snapshot) under small mutable ingest tails, with
// incremental integer cell counts (profile.Accumulator) and a
// version-keyed cache of each user's zone scan (zone, margin and flat
// verdict against the generic profile) keeping per-post work O(changed
// state) instead of O(corpus). A refit is one geoloc.LocateCrowd call
// with that cache: polish pass 1 runs the kernel only for users whose
// profile changed, and placement reads pass 1's zones.
//
// Concurrency design (DESIGN.md §4i): the hot path is shard → fold →
// atomic view swap. Mutable per-user state (accumulator cells, zone
// cache) is split into user-hash shards colocated with the head's tail
// shards, so two ingest requests contend only when they touch the same
// shard; stream totals (generation, users, rejected lines) are plain
// atomics. Reads never take a write lock: /healthz and the /report fast
// path load an immutable view behind an atomic pointer that the refitter
// swaps wholesale, and /place touches exactly one shard mutex.
// Compaction folds the shard tails off the request path (shard locks held
// only to swap each tail out) and checkpoints the swapped-out immutable
// dataset with no daemon lock held at all.
//
// Consistency model: every accepted post bumps a generation counter; a
// report is the pure deterministic function of the post multiset at some
// generation. /report recomputes when the published view is stale, so a
// drained daemon answers with exactly the report a batch run over the same
// posts would print — bit-identical, any ingest interleaving and any shard
// count (the accumulator's integer cell counts are order-independent, the
// sharded head folds in global arrival order, and polish, placement and
// the EM fit are deterministic functions of them).

package pipeline

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"darkcrowd/internal/atomicio"
	"darkcrowd/internal/core/geoloc"
	"darkcrowd/internal/core/profile"
	"darkcrowd/internal/obs"
	"darkcrowd/internal/trace"
)

// ErrNoCrowd is returned by Report (and surfaced as 503 on /report) while
// no user has reached the active-profile threshold yet.
var ErrNoCrowd = errors.New("pipeline: no active users to geolocate yet")

// ErrLineTooLong aborts an ingest request whose NDJSON line exceeds
// maxIngestLine; surfaced as 413 on /ingest.
var ErrLineTooLong = errors.New("pipeline: ingest line too long")

// ErrBadLineBudget aborts an ingest request with more malformed lines
// than ServeConfig.MaxBadLines; surfaced as 400 on /ingest.
var ErrBadLineBudget = errors.New("pipeline: too many malformed ingest lines")

// DefaultCompactEvery is the ingest-tail size that triggers compaction
// into the immutable base (and a snapshot write when configured).
const DefaultCompactEvery = 1 << 16

// DefaultRefitDebounce is the quiet period after the last ingest before
// the background refitter recomputes the report cache.
const DefaultRefitDebounce = 500 * time.Millisecond

// DefaultMaxBadLines is the per-request malformed-line budget: lenient
// enough for real quarantine-grade feeds, small enough that a garbage
// stream fails fast instead of being scanned to the end.
const DefaultMaxBadLines = 4096

// maxIngestLine bounds one NDJSON line; longer lines abort the request.
const maxIngestLine = 1 << 20

// ServeConfig parameterizes a streaming geolocation daemon.
type ServeConfig struct {
	// Reference supplies the generic reference profile, exactly as in
	// Config.Reference. Required; it runs once, synchronously, in NewDaemon.
	Reference func() (*profile.GenericResult, error)
	// MinPosts is the active-user threshold (0: profile.DefaultMinPosts).
	MinPosts int
	// SkipPolish disables flat-profile removal at report time.
	SkipPolish bool
	// MaxComponents bounds the GMM model search (0: the geoloc default).
	MaxComponents int
	// Workers sets the EM fit parallelism (0 = all cores). Reports are
	// bit-identical for every setting.
	Workers int
	// Shards sets the ingest shard count (0: trace.DefaultHeadShards;
	// rounded up to a power of two). Reports are bit-identical for every
	// setting; more shards means less contention between concurrent
	// ingest requests.
	Shards int
	// SnapshotPath, when non-empty, checkpoints the compacted trace to
	// this .dcs file (atomically, after each compaction and on Close) and
	// warm-starts from it on boot.
	SnapshotPath string
	// CompactEvery folds the mutable ingest tails into the immutable base
	// once they hold this many posts (0: DefaultCompactEvery).
	CompactEvery int
	// MaxBadLines bounds malformed lines per ingest request before the
	// request is aborted with ErrBadLineBudget (0: DefaultMaxBadLines;
	// negative: unlimited).
	MaxBadLines int
	// RefitDebounce is the quiet period before the background refitter
	// refreshes the report cache (0: DefaultRefitDebounce; negative:
	// background refits off — /report still recomputes on demand).
	RefitDebounce time.Duration
	// Obs, when non-nil, receives serve.* counters/gauges, per-endpoint
	// http.*.ns latency histograms, and the stage spans of every refit.
	// Observation only.
	Obs *obs.Observer
}

// ServeReport is the daemon's crowd report: the batch Geolocation plus
// stream bookkeeping. Geo is bit-identical to what a batch Geolocate run
// over the same posts would produce.
type ServeReport struct {
	// Gen is the ingest generation the report was computed at (the number
	// of accepted posts, including warm-started ones).
	Gen uint64 `json:"gen"`
	// Posts and Users count the whole stream, active or not.
	Posts int `json:"posts"`
	Users int `json:"users"`
	// ActiveUsers counts the profiles that reached placement (post
	// threshold, minus polish removals).
	ActiveUsers int `json:"active_users"`
	// PolishRemoved counts flat profiles dropped at report time.
	PolishRemoved int `json:"polish_removed"`
	// Geo is the geolocation: placement, mixture, components, metrics.
	Geo *geoloc.Geolocation `json:"geo"`
}

// zoneEntry is one user's cached zone scan against the daemon's generic
// profile (zone, margin and flat verdict from one kernel call), valid
// while the user's profile version still matches. /place serves the zone
// and margin from it, and a refit hands it to polish pass 1 as the cache.
type zoneEntry struct {
	scan profile.ZoneScan
	ver  uint64
}

// daemonShard is one user-hash shard of the daemon's mutable read-side
// state, colocated with the head's tail shard for the same users. Padded
// so neighbouring shards' locks don't share a cache line.
type daemonShard struct {
	mu    sync.Mutex
	acc   *profile.Accumulator
	zones map[string]zoneEntry
	_     [40]byte // mutex+2 pointers = 24 bytes; pad to a 64-byte line
}

// reportView is the immutable published report state: swapped wholesale
// behind Daemon.view, never mutated after publication, so readers load it
// with one atomic pointer read and no lock.
type reportView struct {
	rep    *ServeReport
	fitted uint64 // generation rep was computed at
}

// Daemon is a streaming geolocation service over an NDJSON post stream.
// Construct with NewDaemon, expose Handler over HTTP, Close to flush.
type Daemon struct {
	cfg     ServeConfig
	generic profile.Profile
	o       *obs.Observer
	start   time.Time

	// head holds the post log: immutable compacted base plus per-shard
	// mutable tails. shards holds the matching per-user read state —
	// shards[head.ShardOf(user)] owns user's accumulator cells and cached
	// zone, so /place locks exactly one shard, and an ingest chunk each
	// shard it touches once.
	head   *trace.ShardedHead
	shards []daemonShard

	// Stream totals, all lock-free. gen counts accepted posts (including
	// warm-started ones) and doubles as the post total: the two are equal
	// by construction.
	gen     atomic.Uint64
	users   atomic.Int64
	rejects atomic.Uint64

	// view is the published report (nil until the first successful fit).
	// Readers only Load; refit Stores a fresh immutable reportView.
	view atomic.Pointer[reportView]

	// fitMu serializes report computation, snapMu snapshot writes, and
	// compactMu the fold trigger (TryLock, so at most one ingest request
	// pays for a compaction while the rest stream on). None are ever held
	// while another of the three is taken.
	fitMu     sync.Mutex
	snapMu    sync.Mutex
	compactMu sync.Mutex

	// Instruments resolved once at construction (all nil-safe no-ops when
	// observability is off).
	cPosts, cRejects, cCompact *obs.Counter
	cRefits, cRefitsBg         *obs.Counter
	cFresh, cCached, cScans    *obs.Counter
	cSnapLoads, cSnapWrites    *obs.Counter
	gPosts, gUsers             *obs.Gauge
	latIngest, latPlace        *obs.LatencyHist
	latReport, latHealthz      *obs.LatencyHist
	latRefit                   *obs.LatencyHist

	kick      chan struct{}
	stop      context.CancelFunc
	refitDone chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// NewDaemon builds the reference profile, warm-starts from
// cfg.SnapshotPath when the file exists, and starts the background
// refitter. The returned daemon is ready to serve; Close releases it.
func NewDaemon(cfg ServeConfig) (*Daemon, error) {
	if cfg.Reference == nil {
		return nil, errors.New("pipeline: ServeConfig.Reference is required")
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = DefaultCompactEvery
	}
	if cfg.RefitDebounce == 0 {
		cfg.RefitDebounce = DefaultRefitDebounce
	}
	if cfg.MaxBadLines == 0 {
		cfg.MaxBadLines = DefaultMaxBadLines
	}
	gen, err := cfg.Reference()
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:     cfg,
		generic: gen.Generic,
		o:       cfg.Obs,
		start:   time.Now(),
		kick:    make(chan struct{}, 1),
	}
	d.cPosts = d.o.Counter("serve.posts_ingested")
	d.cRejects = d.o.Counter("serve.lines_rejected")
	d.cCompact = d.o.Counter("serve.compactions")
	d.cRefits = d.o.Counter("serve.refits")
	d.cRefitsBg = d.o.Counter("serve.refits_background")
	d.cFresh = d.o.Counter("serve.placements_fresh")
	d.cCached = d.o.Counter("serve.placements_cached")
	d.cScans = d.o.Counter(profile.ZoneScansCounter)
	// Refits count their polish flat checks here; registered up front so
	// /metrics lists it next to the zone scans from boot.
	d.o.Counter(profile.FlatChecksCounter)
	d.cSnapLoads = d.o.Counter("serve.snapshot_loads")
	d.cSnapWrites = d.o.Counter("serve.snapshot_writes")
	d.gPosts = d.o.Gauge("serve.posts")
	d.gUsers = d.o.Gauge("serve.users")
	d.latIngest = d.o.Latency("http.ingest.ns")
	d.latPlace = d.o.Latency("http.place.ns")
	d.latReport = d.o.Latency("http.report.ns")
	d.latHealthz = d.o.Latency("http.healthz.ns")
	d.latRefit = d.o.Latency("serve.refit.ns")

	var base *trace.Dataset
	if cfg.SnapshotPath != "" {
		data, err := os.ReadFile(cfg.SnapshotPath)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// First boot: nothing to warm-start from.
		case err != nil:
			return nil, fmt.Errorf("pipeline: open snapshot: %w", err)
		default:
			base, err = trace.ReadSnapshotBytes(data)
			if err != nil {
				return nil, fmt.Errorf("pipeline: load snapshot %s: %w (delete it to start empty)", cfg.SnapshotPath, err)
			}
			d.cSnapLoads.Add(1)
			d.o.Eventf("serve", "warm-started from snapshot", "posts", base.NumPosts())
		}
	}
	d.head = trace.NewShardedHead("serve", base, cfg.Shards)
	d.shards = make([]daemonShard, d.head.NumShards())
	for i := range d.shards {
		d.shards[i].acc = profile.NewAccumulator(cfg.MinPosts)
		d.shards[i].zones = make(map[string]zoneEntry)
	}
	if base != nil {
		// Feed the accumulators user by user from the store columns: one
		// shard hash per user, and the user's seconds in dataset order.
		s := base.Index()
		var secs []int64
		for u := 0; u < s.NumUsers(); u++ {
			id := s.UserID(u)
			acc := d.shards[d.head.ShardOfString(id)].acc
			secs = s.AppendUserTimes(secs[:0], u)
			for _, sec := range secs {
				acc.Add(id, sec)
			}
		}
		users := 0
		for i := range d.shards {
			users += d.shards[i].acc.NumUsers()
		}
		d.gen.Store(uint64(base.NumPosts()))
		d.users.Store(int64(users))
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.stop = cancel
	d.refitDone = make(chan struct{})
	if cfg.RefitDebounce > 0 {
		go d.refitLoop(ctx)
	} else {
		close(d.refitDone)
	}
	return d, nil
}

// Close stops the background refitter and, when a snapshot path is
// configured, compacts and writes a final snapshot. Idempotent.
func (d *Daemon) Close() error {
	d.closeOnce.Do(func() {
		d.stop()
		<-d.refitDone
		if d.cfg.SnapshotPath != "" {
			d.compactMu.Lock()
			ds := d.head.Compact()
			d.compactMu.Unlock()
			d.closeErr = d.writeSnapshot(ds)
		}
	})
	return d.closeErr
}

// refitLoop keeps the report cache warm: each ingest kicks it, it waits
// for the stream to go quiet for RefitDebounce, then refits once. Errors
// (e.g. no active users yet) are ignored — /report recomputes on demand.
func (d *Daemon) refitLoop(ctx context.Context) {
	defer close(d.refitDone)
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-d.kick:
		}
		timer.Reset(d.cfg.RefitDebounce)
	debounce:
		for {
			select {
			case <-ctx.Done():
				timer.Stop()
				return
			case <-d.kick:
				timer.Reset(d.cfg.RefitDebounce)
			case <-timer.C:
				break debounce
			}
		}
		if _, err := d.Report(); err == nil {
			d.cRefitsBg.Add(1)
		}
	}
}

// ingestPost is one NDJSON ingest line — the JSON shape of trace.Post.
// It is the slow-lane decode target; parseIngestLine covers the plain
// shape without reflection.
type ingestPost struct {
	UserID string    `json:"user_id"`
	Time   time.Time `json:"time"`
}

// IngestResult summarizes one ingest request.
type IngestResult struct {
	// Accepted counts posts applied to the stream state.
	Accepted int `json:"accepted"`
	// Rejected counts malformed lines skipped (lenient, like the CSV
	// quarantine path); FirstError carries the first parse failure.
	Rejected   int    `json:"rejected"`
	FirstError string `json:"first_error,omitempty"`
	// Posts, Users and Gen are *daemon-wide* stream totals observed at the
	// moment this request completed — they include posts applied by other
	// requests running concurrently, not just this request's Accepted. The
	// pair is snapshotted consistently: Users is read before Gen, and applyChunk
	// advances gen before users, so Users never counts a user whose first
	// post isn't already included in Posts (Users <= Posts always holds).
	Posts int    `json:"posts"`
	Users int    `json:"users"`
	Gen   uint64 `json:"gen"`
}

// Ingest consumes an NDJSON stream — one {"user_id":..., "time":...}
// object per line, the JSON shape of trace.Post — and applies it to the
// stream state. Malformed lines are counted and skipped up to the
// MaxBadLines budget; a head capacity error (trace.LimitError), an
// oversized line (ErrLineTooLong) or a blown budget (ErrBadLineBudget)
// aborts the request with the posts of the lines before it applied.
// Sub-second timestamp precision is dropped, matching the columnar store's
// epoch-seconds column.
//
// Lines are parsed into chunks of at most maxChunk posts, and each chunk
// is applied at once (applyChunk): one ticket reservation, one critical
// section per touched shard, one update of each stream total. A chunk
// never runs past the fold threshold, so at one connection folds happen
// after exactly the posts they would after a post-by-post apply.
func (d *Daemon) Ingest(r io.Reader) (IngestResult, error) {
	var res IngestResult
	defer d.finishIngest(&res)
	sc := bufio.NewScanner(r)
	buf := lineBufPool.Get().(*[]byte)
	defer lineBufPool.Put(buf)
	sc.Buffer((*buf)[:0], maxIngestLine)
	c := chunkPool.Get().(*ingestChunk)
	defer chunkPool.Put(c)
	room := d.chunkRoom()
	for lineNo := 1; sc.Scan(); lineNo++ {
		// Full trim, not just leading: CRLF-terminated lines (curl on
		// Windows, proxy rewrites) reach the scanner with a trailing \r
		// when the stream mixes \r\n into a line the scanner split on \n.
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		user, sec, ok := parseIngestLine(line)
		if !ok {
			user, sec, ok = decodeSlowLine(line)
		}
		if !ok {
			c.bad = append(c.bad, badLine{at: c.posts.Len(), line: lineNo})
			if d.cfg.MaxBadLines > 0 && res.Rejected+len(c.bad) > d.cfg.MaxBadLines {
				if err := d.applyChunk(c, &res); err != nil {
					return res, err
				}
				return res, fmt.Errorf("%w: %d malformed lines (budget %d)", ErrBadLineBudget, res.Rejected, d.cfg.MaxBadLines)
			}
			continue
		}
		c.posts.Add(user, sec)
		if c.posts.Len() >= room {
			if err := d.applyChunk(c, &res); err != nil {
				return res, err
			}
			room = d.chunkRoom()
		}
	}
	if err := d.applyChunk(c, &res); err != nil {
		return res, err
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return res, fmt.Errorf("%w: line exceeds %d bytes", ErrLineTooLong, maxIngestLine)
		}
		return res, fmt.Errorf("pipeline: read ingest body: %w", err)
	}
	return res, nil
}

// maxChunk bounds the posts one ingest chunk holds: large enough that the
// per-chunk costs (ticket reservation, shard locks, counter updates) are
// spread thin, small enough that the chunk's scratch stays in cache.
const maxChunk = 1024

// ingestChunk is the part of an ingest request parsed but not yet
// applied: its accepted posts, and the malformed lines among them.
type ingestChunk struct {
	posts trace.Batch
	bad   []badLine
}

// badLine is one malformed line of a chunk: its physical line number and
// the number of the chunk's posts parsed before it.
type badLine struct{ at, line int }

// chunkPool recycles ingest chunks, arena and scratch included, across
// requests: a trickle request of a few lines allocates none of them.
var chunkPool = sync.Pool{New: func() any { return new(ingestChunk) }}

// chunkRoom returns how many posts the next chunk may hold: maxChunk, cut
// to end at the fold threshold. Past the threshold (a concurrent
// request's fold is under way) the cut is dropped.
func (d *Daemon) chunkRoom() int {
	if room := d.cfg.CompactEvery - d.head.Pending(); room > 0 {
		return min(room, maxChunk)
	}
	return maxChunk
}

// shardLock is the lock of the daemon shard colocated with head shard si.
func (d *Daemon) shardLock(si int) sync.Locker { return &d.shards[si].mu }

// applyChunk applies a chunk's posts and counts its malformed lines, then
// empties it. The head reserves the chunk's tickets at once and, per
// touched shard, appends the shard's posts to its tail and folds them into
// the shard's accumulator in one critical section; the stream totals then
// advance once, gen before users (see finishIngest). When the head refuses
// a post (trace.LimitError), the posts before it are applied, and so are
// only the malformed lines before it: the request ends there, as if it
// had been applied line by line.
func (d *Daemon) applyChunk(c *ingestChunk, res *IngestResult) error {
	applied, users := 0, 0
	err := d.head.AppendBatch(&c.posts, d.shardLock, func(si int, posts []int32) {
		acc := d.shards[si].acc
		before := acc.NumUsers()
		for _, i := range posts {
			acc.AddBytes(c.posts.User(int(i)), c.posts.Sec(int(i)))
		}
		users += acc.NumUsers() - before
		applied += len(posts)
	})
	for _, b := range c.bad {
		if err != nil && b.at > applied {
			break
		}
		res.Rejected++
		if res.FirstError == "" {
			res.FirstError = fmt.Sprintf("bad line %d: want {\"user_id\":string,\"time\":RFC3339}", b.line)
		}
	}
	c.posts.Reset()
	c.bad = c.bad[:0]
	if applied > 0 {
		res.Accepted += applied
		d.gen.Add(uint64(applied))
		d.users.Add(int64(users))
	}
	if err != nil {
		return err
	}
	if d.head.Pending() >= d.cfg.CompactEvery {
		return d.maybeCompact()
	}
	return nil
}

// maybeCompact folds the shard tails into a fresh immutable base when the
// pending threshold is reached. TryLock keeps it to one folder at a time
// with zero queueing: every other request just keeps streaming, and the
// checkpoint is written from the swapped-out immutable dataset with no
// daemon lock held.
func (d *Daemon) maybeCompact() error {
	if !d.compactMu.TryLock() {
		return nil
	}
	defer d.compactMu.Unlock()
	if d.head.Pending() < d.cfg.CompactEvery {
		return nil // another request folded while we queued on TryLock
	}
	ds := d.head.Compact()
	d.cCompact.Add(1)
	if d.cfg.SnapshotPath != "" {
		return d.writeSnapshot(ds)
	}
	return nil
}

// finishIngest stamps the stream totals on the result and publishes the
// request's observability deltas. Runs on every exit path.
//
// The totals are live global gauges, so a concurrent request's posts can be
// included — that is the documented IngestResult semantics (daemon totals
// at completion). What must NOT happen is an *inconsistent* pair: loading
// gen before users could observe a user whose post hadn't been counted yet
// (applyChunk bumps gen before users), yielding Users > Posts on a fresh stream.
// Loading users first inverts the race: any user counted here had its first
// post's gen bump already visible, so Users <= Posts always holds.
func (d *Daemon) finishIngest(res *IngestResult) {
	if res.Rejected > 0 {
		d.rejects.Add(uint64(res.Rejected))
	}
	res.Users = int(d.users.Load())
	res.Gen = d.gen.Load()
	res.Posts = int(res.Gen)
	d.cPosts.Add(int64(res.Accepted))
	d.cRejects.Add(int64(res.Rejected))
	d.gPosts.Set(int64(res.Posts))
	d.gUsers.Set(int64(res.Users))
	if res.Accepted > 0 {
		select { // wake the debounced refitter without blocking
		case d.kick <- struct{}{}:
		default:
		}
	}
}

// writeSnapshot persists an immutable compacted dataset atomically.
// Serialized so overlapping compactions can't interleave tmp files; the
// dataset itself is immutable, so no daemon state lock is held.
func (d *Daemon) writeSnapshot(ds *trace.Dataset) error {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	if err := atomicio.WriteFile(d.cfg.SnapshotPath, ds.WriteSnapshot); err != nil {
		return fmt.Errorf("pipeline: save snapshot: %w", err)
	}
	d.cSnapWrites.Add(1)
	return nil
}

// Report returns the crowd report for the current generation, serving the
// published view when fresh — one atomic load, no lock — and recomputing
// otherwise. A drained daemon (no concurrent ingest) therefore always
// reports on every accepted post.
func (d *Daemon) Report() (*ServeReport, error) {
	if v := d.view.Load(); v != nil && v.fitted == d.gen.Load() {
		return v.rep, nil
	}
	return d.refit()
}

// refit computes the report for the generation observed before the shard
// sweep. Shard locks are held one at a time, only to count and then copy
// active profiles and cached zones out; the polish/placement/EM work runs
// with no lock, serialized by fitMu so concurrent /report calls don't
// duplicate the fit. The finished report is published by swapping the
// atomic view, and its duration observed under serve.refit.ns.
func (d *Daemon) refit() (*ServeReport, error) {
	d.fitMu.Lock()
	defer d.fitMu.Unlock()

	// The generation is read before the sweep: if posts land while we
	// copy, the published view is already stale at publication and the
	// next /report recomputes. Drained, g is exact.
	g := d.gen.Load()
	if v := d.view.Load(); v != nil && v.fitted == g {
		return v.rep, nil
	}
	start := time.Now()
	// Size the sweep's maps first, so it fills them without growing them;
	// posts landing in between only make the sizes a hint.
	active, cached := 0, 0
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		active += sh.acc.NumActive()
		cached += len(sh.zones)
		sh.mu.Unlock()
	}
	profiles := make(map[string]profile.Profile, active)
	versions := make(map[string]uint64, active)
	known := make(map[string]profile.ZoneScan, min(cached, active))
	posts, users := 0, 0
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		sh.acc.EachActive(func(id string, p profile.Profile, ver uint64) {
			profiles[id] = p
			versions[id] = ver
			if e, ok := sh.zones[id]; ok && e.ver == ver {
				known[id] = e.scan
			}
		})
		posts += sh.acc.TotalPosts()
		users += sh.acc.NumUsers()
		sh.mu.Unlock()
	}

	polished, geo, err := geoloc.LocateCrowd(profiles, d.generic, geoloc.LocateOptions{
		SkipPolish:    d.cfg.SkipPolish,
		MaxComponents: d.cfg.MaxComponents,
		Parallelism:   d.cfg.Workers,
		Obs:           d.o,
		Cache:         known,
	})
	if errors.Is(err, geoloc.ErrNoProfiles) {
		return nil, ErrNoCrowd
	}
	if err != nil {
		return nil, err
	}
	rep := &ServeReport{
		Gen:           g,
		Posts:         posts,
		Users:         users,
		ActiveUsers:   len(polished.Kept),
		PolishRemoved: len(polished.Removed),
		Geo:           geo,
	}
	d.cRefits.Add(1)
	d.cFresh.Add(int64(len(profiles) - len(known)))
	d.cCached.Add(int64(len(known)))

	// The first scan against d.generic (polish pass 1, or placement
	// without polishing) is valid for the profile versions captured in
	// the sweep; staleness is re-checked against the live version on
	// every later read, so writing fresh scans back unconditionally is
	// safe even if the user changed mid-fit.
	for i, id := range polished.IDs {
		if _, ok := known[id]; ok {
			continue
		}
		sh := &d.shards[d.head.ShardOfString(id)]
		sh.mu.Lock()
		sh.zones[id] = zoneEntry{scan: polished.Scans[i], ver: versions[id]}
		sh.mu.Unlock()
	}
	// fitMu makes this the only writer; the newer-generation guard only
	// matters across the nil initial state.
	if v := d.view.Load(); v == nil || g >= v.fitted {
		d.view.Store(&reportView{rep: rep, fitted: g})
	}
	d.latRefit.Observe(time.Since(start))
	return rep, nil
}

// PlaceResult is the /place/{user} response.
type PlaceResult struct {
	UserID string `json:"user_id"`
	Posts  int    `json:"posts"`
	// Active reports whether the user reached the profile threshold;
	// Offset/ZoneIndex are only present when it did.
	Active    bool   `json:"active"`
	Offset    string `json:"offset,omitempty"`
	ZoneIndex *int   `json:"zone_index,omitempty"`
	// Margin is the placement margin: the EMD gap between the runner-up
	// zone and the winning zone. Near zero means the placement was nearly a
	// coin flip; large means the profile points unambiguously at one zone.
	Margin *float64 `json:"margin,omitempty"`
}

// Place answers the per-user placement question: the zone whose reference
// profile is EMD-nearest to the user's current raw profile (pre-polish —
// flat-profile removal is a crowd-level report step). Placements are
// served from the version-keyed cache when the profile hasn't changed.
// Only the user's own shard is ever locked. ok is false for users the
// stream has never seen.
func (d *Daemon) Place(userID string) (PlaceResult, bool) {
	sh := &d.shards[d.head.ShardOfString(userID)]
	sh.mu.Lock()
	posts := sh.acc.Posts(userID)
	if posts == 0 {
		sh.mu.Unlock()
		return PlaceResult{}, false
	}
	res := PlaceResult{UserID: userID, Posts: posts}
	p, active := sh.acc.ProfileOf(userID)
	if !active {
		sh.mu.Unlock()
		return res, true
	}
	res.Active = true
	ver := sh.acc.Version(userID)
	if e, ok := sh.zones[userID]; ok && e.ver == ver {
		sh.mu.Unlock()
		zi, margin := e.scan.Zone, e.scan.Margin
		res.ZoneIndex = &zi
		res.Offset = profile.OffsetOf(zi).String()
		res.Margin = &margin
		d.cCached.Add(1)
		return res, true
	}
	sh.mu.Unlock()
	// Compute outside the lock: the EMD kernel needs only the profile
	// copy. It is the zone scan polish pass 1 runs, so the entry also
	// serves the next refit.
	var sc profile.Scanner
	scan, err := sc.Scan(p, d.generic)
	if err != nil {
		return res, true // active but unplaceable; report bare activity
	}
	d.cScans.Add(1)
	zi, margin := scan.Zone, scan.Margin
	res.ZoneIndex = &zi
	res.Offset = profile.OffsetOf(zi).String()
	res.Margin = &margin
	d.cFresh.Add(1)
	sh.mu.Lock()
	if sh.acc.Version(userID) == ver {
		sh.zones[userID] = zoneEntry{scan: scan, ver: ver}
	}
	sh.mu.Unlock()
	return res, true
}

// Health is the /healthz response.
type Health struct {
	Status    string `json:"status"`
	Posts     int    `json:"posts"`
	Users     int    `json:"users"`
	Gen       uint64 `json:"gen"`
	FittedGen uint64 `json:"fitted_gen"`
	Rejected  uint64 `json:"rejected_lines"`
	UptimeSec int64  `json:"uptime_sec"`
}

// Healthz snapshots the daemon's liveness state. Entirely lock-free:
// atomic counter loads plus one view-pointer load.
func (d *Daemon) Healthz() Health {
	g := d.gen.Load()
	var fitted uint64
	if v := d.view.Load(); v != nil {
		fitted = v.fitted
	}
	return Health{
		Status:    "ok",
		Posts:     int(g),
		Users:     int(d.users.Load()),
		Gen:       g,
		FittedGen: fitted,
		Rejected:  d.rejects.Load(),
		UptimeSec: int64(time.Since(d.start) / time.Second),
	}
}

// writeJSON renders compact JSON: /place and /healthz answer thousands of
// times a second, and response indentation was a measurable slice of the
// serving hot path's CPU.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// timed wraps a handler with one latency observation. When observability
// is off the histogram is nil and the handler is returned untouched, so
// the disabled path pays nothing.
func timed(lat *obs.LatencyHist, fn http.HandlerFunc) http.HandlerFunc {
	if lat == nil {
		return fn
	}
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		fn(w, r)
		lat.Observe(time.Since(t0))
	}
}

// Handler returns the daemon's HTTP API:
//
//	POST /ingest        NDJSON post stream (one trace.Post object per line)
//	GET  /place/{user}  one user's current placement
//	GET  /report        the crowd report (recomputed when stale)
//	GET  /healthz       liveness and stream counters
//
// Ingest failures map to status codes by cause: 400 for a blown
// malformed-line budget, 413 for an oversized line, 507 for storage
// limits. When the daemon was built with an observing ServeConfig.Obs
// carrying a metrics registry, /metrics and /debug/pprof/* are mounted
// too (the obs.Handler surface), with per-endpoint request latencies
// under http.*.ns.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", timed(d.latIngest, func(w http.ResponseWriter, r *http.Request) {
		res, err := d.Ingest(r.Body)
		if err != nil {
			status := http.StatusInsufficientStorage
			switch {
			case errors.Is(err, ErrBadLineBudget):
				status = http.StatusBadRequest
			case errors.Is(err, ErrLineTooLong):
				status = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, status, errorBody{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, res)
	}))
	mux.HandleFunc("GET /place/{user}", timed(d.latPlace, func(w http.ResponseWriter, r *http.Request) {
		res, ok := d.Place(r.PathValue("user"))
		if !ok {
			writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown user"})
			return
		}
		writeJSON(w, http.StatusOK, res)
	}))
	mux.HandleFunc("GET /report", timed(d.latReport, func(w http.ResponseWriter, r *http.Request) {
		rep, err := d.Report()
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, ErrNoCrowd) {
				status = http.StatusServiceUnavailable
			}
			writeJSON(w, status, errorBody{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, rep)
	}))
	mux.HandleFunc("GET /healthz", timed(d.latHealthz, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.Healthz())
	}))
	if d.o != nil && d.o.Metrics != nil {
		debug := obs.Handler(d.o.Metrics)
		mux.Handle("GET /metrics", debug)
		mux.Handle("/debug/pprof/", debug)
	}
	return mux
}
