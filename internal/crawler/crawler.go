// Package crawler implements the paper's data-collection procedure (§V)
// against a forum (plain HTTP or hidden service via internal/onion):
//
//	"First, we sign up in the forum and write a post in the Welcome or
//	Spam thread to calculate the offset between the server time (the one
//	on the post) and UTC. ... once the offset from UTC is known we can
//	collect the timestamps of the posts in a sound and consistent way."
//
// The crawler registers a probe account, posts in the Welcome thread,
// reads back its own post's displayed timestamp to learn the server-clock
// offset, then paginates every thread of every board extracting
// (author, displayed time) pairs and normalizing them to UTC. The output
// is a trace.Dataset ready for the geolocation pipeline; only author IDs
// and posting times are retained, as in the paper's ethics statement
// (§VIII).
//
// Collection against hidden services runs for weeks over a flaky fabric,
// so every HTTP exchange goes through a robustness layer: per-request
// timeouts, bounded exponential-backoff retries with jitter, a politeness
// rate limit, a capped body read, a per-thread failure budget, and
// optional checkpoints that let an interrupted crawl resume and still
// produce the dataset an uninterrupted crawl would have.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"html"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"darkcrowd/internal/forum"
	"darkcrowd/internal/obs"
	"darkcrowd/internal/trace"
)

// ProbeAuthor is the account name the crawler registers for the clock
// probe; its posts are excluded from the scraped dataset. (That exclusion
// also makes the probe POST safe to retry: a duplicate probe reply is
// never collected.)
const ProbeAuthor = "tz-probe-account"

// ErrNoTimestamps is returned when the forum renders posts without
// timestamps (the §VII countermeasure); use Monitor instead of Scrape.
var ErrNoTimestamps = errors.New("crawler: forum hides post timestamps (use Monitor)")

// errBodyTooLarge marks a response body exceeding the read cap; it is
// not retried — a server page does not shrink on a second fetch.
var errBodyTooLarge = errors.New("crawler: response body exceeds size cap")

// Crawler scrapes one forum.
type Crawler struct {
	// HTTPClient performs the requests; wire its transport through an
	// onion client to scrape a hidden service. Defaults to
	// http.DefaultClient.
	HTTPClient *http.Client
	// BaseURL is the forum root, e.g. "http://crdclub4wraumez4.onion".
	BaseURL string
	// Clock supplies the crawler's own UTC time for the offset probe.
	// Defaults to time.Now.
	Clock func() time.Time

	// Timeout bounds each individual HTTP exchange (default
	// DefaultTimeout). A timed-out request counts as transient and is
	// retried under Retry.
	Timeout time.Duration
	// Retry bounds the per-request retry loop; the zero value uses the
	// defaults (see RetryPolicy).
	Retry RetryPolicy
	// MinInterval is the politeness gap between request starts (0
	// disables rate limiting). Retried attempts respect it too.
	MinInterval time.Duration
	// MaxBodyBytes caps how much of a response body is read (default
	// DefaultMaxBody).
	MaxBodyBytes int64
	// MaxFailures is how many threads may be skipped (recorded in
	// Result.Errors) before the crawl aborts. The default 0 keeps the
	// historical behavior: the first thread that fails all its retries
	// aborts the crawl.
	MaxFailures int
	// Sleep, when set, replaces the real pauses (backoff, politeness);
	// tests use it to run fault schedules without wall-clock delays.
	Sleep func(time.Duration)
	// Obs, when non-nil, receives crawl metrics (crawler.requests,
	// crawler.retries, backoff/politeness wait totals, checkpoint saves,
	// thread/page/post counts, the remaining failure budget), "crawl" and
	// "probe" stage spans, and per-thread progress events. Observation
	// only: the crawl behaves identically with or without it.
	Obs *obs.Observer

	retries atomic.Int64

	rngMu sync.Mutex
	rng   *rand.Rand

	gateMu   sync.Mutex
	gateNext time.Time
}

// CrawlError records one thread the crawler gave up on after exhausting
// its retries.
type CrawlError struct {
	// Thread is the forum thread ID.
	Thread string `json:"thread"`
	// Page is the 0-based page the failure happened on.
	Page int `json:"page"`
	// Err is the final attempt's error.
	Err string `json:"err"`
}

// String renders the error for reports.
func (e CrawlError) String() string {
	return fmt.Sprintf("thread %s page %d: %s", e.Thread, e.Page, e.Err)
}

// Result is a completed scrape.
type Result struct {
	// Dataset holds the UTC-normalized (author, time) pairs.
	Dataset *trace.Dataset
	// ServerOffset is the measured server-clock offset from UTC.
	ServerOffset time.Duration
	// Boards, Threads and Pages count what was crawled; Threads and
	// Pages count only fully scraped threads.
	Boards, Threads, Pages int
	// Skipped counts threads abandoned after exhausting retries, and
	// Errors records why (the per-crawl error report).
	Skipped int
	Errors  []CrawlError
	// Retries is how many HTTP attempts beyond the first were needed.
	Retries int
	// Resumed reports whether the crawl continued from a checkpoint.
	Resumed bool
}

var (
	boardLinkRe  = regexp.MustCompile(`href="/board\?id=(\d+)"`)
	threadLinkRe = regexp.MustCompile(`href="/thread\?id=(\d+)"`)
	postRe       = regexp.MustCompile(`<div class="post" data-id="(\d+)" data-author="([^"]*)"(?: data-time="([^"]*)")?>`)
	pagesRe      = regexp.MustCompile(`data-pages="(\d+)"`)
)

func (c *Crawler) client() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Crawler) now() time.Time {
	if c.Clock != nil {
		return c.Clock().UTC()
	}
	return time.Now().UTC()
}

// pause sleeps for d, honoring the Sleep test hook and the context.
func (c *Crawler) pause(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if c.Sleep != nil {
		c.Sleep(d)
		return ctx.Err()
	}
	return sleepCtx(ctx, d)
}

// politeness enforces MinInterval between request starts. Slots are
// handed out under the gate lock, so concurrent callers queue fairly.
func (c *Crawler) politeness(ctx context.Context) error {
	if c.MinInterval <= 0 {
		return ctx.Err()
	}
	c.gateMu.Lock()
	now := time.Now()
	var wait time.Duration
	if now.Before(c.gateNext) {
		wait = c.gateNext.Sub(now)
	}
	c.gateNext = now.Add(wait + c.MinInterval)
	c.gateMu.Unlock()
	c.Obs.Counter("crawler.politeness_wait_ns").Add(int64(wait))
	return c.pause(ctx, wait)
}

// backoffDelay draws the jittered pause before the retry-th retry.
func (c *Crawler) backoffDelay(policy RetryPolicy, retry int) time.Duration {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(policy.Seed))
	}
	return policy.backoff(retry, c.rng)
}

// do performs one logical HTTP exchange with the full robustness layer:
// politeness gap, per-request timeout, and bounded retries on transient
// transport errors and retryable statuses (5xx/429). It returns the
// final status, body, and the URL the exchange ended on (after any
// redirects) so error reports name the page that actually failed.
func (c *Crawler) do(ctx context.Context, method, path string, form url.Values) (status int, body, finalURL string, err error) {
	policy := c.Retry.withDefaults()
	var lastErr error
	for attempt := 1; attempt <= policy.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return 0, "", "", err
		}
		if attempt > 1 {
			c.retries.Add(1)
			c.Obs.Counter("crawler.retries").Inc()
			delay := c.backoffDelay(policy, attempt-1)
			c.Obs.Counter("crawler.backoff_wait_ns").Add(int64(delay))
			if err := c.pause(ctx, delay); err != nil {
				return 0, "", "", err
			}
		}
		if err := c.politeness(ctx); err != nil {
			return 0, "", "", err
		}
		c.Obs.Counter("crawler.requests").Inc()
		st, b, fu, err := c.doOnce(ctx, method, path, form)
		if err != nil {
			if !transientError(err) {
				return 0, "", "", err
			}
			lastErr = err
			continue
		}
		if transientStatus(st) {
			lastErr = fmt.Errorf("crawler: %s %s: status %d", method, fu, st)
			continue
		}
		return st, b, fu, nil
	}
	return 0, "", "", fmt.Errorf("crawler: %s %s%s: giving up after %d attempts: %w",
		method, c.BaseURL, path, policy.MaxAttempts, lastErr)
}

// doOnce performs a single attempt under the per-request timeout.
// Retryable statuses return (status, "", finalURL, nil) without reading
// the body; the caller decides whether to retry.
func (c *Crawler) doOnce(ctx context.Context, method, path string, form url.Values) (int, string, string, error) {
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	var bodyReader io.Reader
	if form != nil {
		bodyReader = strings.NewReader(form.Encode())
	}
	req, err := http.NewRequestWithContext(rctx, method, c.BaseURL+path, bodyReader)
	if err != nil {
		return 0, "", "", fmt.Errorf("crawler: %s %s%s: %w", method, c.BaseURL, path, err)
	}
	if form != nil {
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return 0, "", "", fmt.Errorf("crawler: %s %s%s: %w", method, c.BaseURL, path, err)
	}
	defer resp.Body.Close()
	finalURL := req.URL.String()
	if resp.Request != nil && resp.Request.URL != nil {
		finalURL = resp.Request.URL.String()
	}
	// Status first: there is no point reading (and no safety in
	// trusting) the body of a failed exchange.
	if transientStatus(resp.StatusCode) {
		_, _ = io.CopyN(io.Discard, resp.Body, 4096)
		return resp.StatusCode, "", finalURL, nil
	}
	limit := c.MaxBodyBytes
	if limit <= 0 {
		limit = DefaultMaxBody
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return 0, "", "", fmt.Errorf("crawler: read %s: %w", finalURL, err)
	}
	if int64(len(data)) > limit {
		return 0, "", "", fmt.Errorf("crawler: %s: %w (limit %d bytes)", finalURL, errBodyTooLarge, limit)
	}
	return resp.StatusCode, string(data), finalURL, nil
}

// get fetches a page and returns its body.
func (c *Crawler) get(ctx context.Context, path string) (string, error) {
	status, body, finalURL, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("crawler: GET %s: status %d", finalURL, status)
	}
	return body, nil
}

// MeasureOffset runs MeasureOffsetContext with a background context.
func (c *Crawler) MeasureOffset() (time.Duration, error) {
	return c.MeasureOffsetContext(context.Background())
}

// MeasureOffsetContext runs the Welcome-thread probe: register, post,
// read the displayed timestamp of our own post, and compare it to our
// clock. The offset is rounded to the nearest minute (network latency is
// well below that).
func (c *Crawler) MeasureOffsetContext(ctx context.Context) (time.Duration, error) {
	o := c.Obs.Stage("probe")
	defer o.End()
	return c.measureOffset(ctx, o)
}

// measureOffset is MeasureOffsetContext under a caller-owned stage span,
// so a probe run from inside a crawl nests under the "crawl" span.
func (c *Crawler) measureOffset(ctx context.Context, o *obs.Observer) (time.Duration, error) {
	// Registration may 409 if a previous probe ran; that is fine.
	status, _, finalURL, err := c.do(ctx, http.MethodPost, "/register", url.Values{"name": {ProbeAuthor}})
	if err != nil {
		return 0, fmt.Errorf("crawler: register probe: %w", err)
	}
	if status != http.StatusCreated && status != http.StatusConflict {
		return 0, fmt.Errorf("crawler: register probe at %s: status %d", finalURL, status)
	}

	welcomeThread, err := c.findWelcomeThread(ctx)
	if err != nil {
		return 0, err
	}
	sent := c.now()
	status, echo, finalURL, err := c.do(ctx, http.MethodPost, "/reply", url.Values{
		"thread": {strconv.Itoa(welcomeThread)},
		"author": {ProbeAuthor},
		"body":   {"hello from a new member"},
	})
	if err != nil {
		return 0, fmt.Errorf("crawler: probe post: %w", err)
	}
	if status != http.StatusCreated {
		return 0, fmt.Errorf("crawler: probe post at %s: status %d (%s)", finalURL, status, echo)
	}
	m := postRe.FindStringSubmatch(echo)
	if m == nil {
		return 0, errors.New("crawler: probe echo carries no post markup")
	}
	if m[3] == "" {
		return 0, ErrNoTimestamps
	}
	displayed, err := forum.ParseDisplayedTime(m[3])
	if err != nil {
		return 0, err
	}
	// Both timestamps are wall clocks; the difference is the server
	// offset plus network latency.
	delta := displayed.Sub(time.Date(sent.Year(), sent.Month(), sent.Day(),
		sent.Hour(), sent.Minute(), sent.Second(), 0, time.UTC))
	offset := delta.Round(time.Minute)
	if o.Enabled() {
		o.Eventf("probe", "server offset measured", "offset", offset.String())
	}
	return offset, nil
}

// findWelcomeThread locates the Welcome thread by scanning boards in
// order; the forum engine always places it on the first board.
func (c *Crawler) findWelcomeThread(ctx context.Context) (int, error) {
	index, err := c.get(ctx, "/")
	if err != nil {
		return 0, err
	}
	boards := boardLinkRe.FindAllStringSubmatch(index, -1)
	if len(boards) == 0 {
		return 0, errors.New("crawler: no boards found on index page")
	}
	for _, bm := range boards {
		page, err := c.get(ctx, "/board?id="+bm[1])
		if err != nil {
			return 0, err
		}
		// Look for the Welcome link: threads render as
		// <a href="/thread?id=N">Title</a>.
		for _, tm := range regexp.MustCompile(`href="/thread\?id=(\d+)">([^<]+)<`).FindAllStringSubmatch(page, -1) {
			if strings.EqualFold(html.UnescapeString(tm[2]), forum.WelcomeThreadTitle) {
				id, err := strconv.Atoi(tm[1])
				if err != nil {
					return 0, fmt.Errorf("crawler: bad thread id %q: %w", tm[1], err)
				}
				return id, nil
			}
		}
	}
	return 0, errors.New("crawler: Welcome thread not found")
}

// Scrape crawls the whole forum with a background context and no
// checkpointing.
func (c *Crawler) Scrape(datasetName string) (*Result, error) {
	return c.ScrapeContext(context.Background(), datasetName)
}

// ScrapeContext crawls the whole forum: offset probe first, then every
// page of every thread, normalizing displayed timestamps back to UTC.
func (c *Crawler) ScrapeContext(ctx context.Context, datasetName string) (*Result, error) {
	return c.ScrapeResumable(ctx, datasetName, CheckpointOptions{})
}

// ScrapeResumable is ScrapeContext plus crash recovery: with a
// checkpoint path configured, the crawl snapshots its progress (server
// offset, completed threads, partial dataset) after every opts.Every
// completed threads and before returning any fatal error, and a later
// call with the same path resumes where the previous crawl stopped. A
// resumed crawl does not re-probe the clock (the snapshot carries the
// measured offset) and re-walks the board index, skipping threads
// already collected — so as long as the forum content is stable, the
// resumed dataset is identical to an uninterrupted crawl's. The
// checkpoint file is removed once the crawl completes.
func (c *Crawler) ScrapeResumable(ctx context.Context, datasetName string, opts CheckpointOptions) (*Result, error) {
	if opts.Every <= 0 {
		opts.Every = 1
	}
	o := c.Obs.Stage("crawl")
	defer o.End()
	startRetries := c.retries.Load()
	res := &Result{}
	// The crawl collects rows (the checkpoint persists them as JSON) and
	// builds the dataset once, when it completes.
	var posts []trace.Post

	done := map[string]bool{}
	var doneOrder []string
	var ck *checkpoint
	if opts.Path != "" {
		var err error
		ck, err = loadCheckpoint(opts.Path, datasetName, c.BaseURL)
		if err != nil {
			return nil, err
		}
	}
	if ck != nil {
		res.Resumed = true
		res.ServerOffset = ck.ServerOffset
		res.Threads = ck.Threads
		res.Pages = ck.Pages
		// Skips recorded in the snapshot are deliberately NOT restored:
		// a thread not marked done gets a fresh retry budget on resume,
		// and its skip record is rebuilt only if it fails again.
		posts = append(posts, ck.Posts...)
		doneOrder = append(doneOrder, ck.DoneThreads...)
		for _, id := range ck.DoneThreads {
			done[id] = true
		}
		if o.Enabled() {
			o.Eventf("crawl", "resumed from checkpoint",
				"threads_done", len(ck.DoneThreads), "posts", len(ck.Posts))
		}
	} else {
		po := o.Stage("probe")
		offset, err := c.measureOffset(ctx, po)
		po.End()
		if err != nil {
			return nil, err
		}
		res.ServerOffset = offset
	}

	save := func() error {
		if opts.Path == "" {
			return nil
		}
		snap := &checkpoint{
			Version:      checkpointVersion,
			DatasetName:  datasetName,
			BaseURL:      c.BaseURL,
			ServerOffset: res.ServerOffset,
			DoneThreads:  doneOrder,
			Threads:      res.Threads,
			Pages:        res.Pages,
			Skipped:      res.Skipped,
			Errors:       res.Errors,
			Posts:        posts,
		}
		if err := snap.save(opts.Path); err != nil {
			return err
		}
		o.Counter("crawler.checkpoint_saves").Inc()
		return nil
	}
	// fatal checkpoints the progress so far, then surfaces the error.
	fatal := func(err error) (*Result, error) {
		if saveErr := save(); saveErr != nil {
			return nil, errors.Join(err, saveErr)
		}
		return nil, err
	}

	// Skips remaining before the budget is exhausted (one more skip at
	// zero aborts the crawl).
	budget := o.Gauge("crawler.failure_budget_remaining")
	budget.Set(int64(c.MaxFailures - res.Skipped))
	index, err := c.get(ctx, "/")
	if err != nil {
		return fatal(err)
	}
	sinceSave := 0
	seenThreads := map[string]bool{}
	for _, bm := range boardLinkRe.FindAllStringSubmatch(index, -1) {
		res.Boards++
		o.Counter("crawler.boards").Inc()
		boardPage, err := c.get(ctx, "/board?id="+bm[1])
		if err != nil {
			return fatal(err)
		}
		for _, tm := range threadLinkRe.FindAllStringSubmatch(boardPage, -1) {
			id := tm[1]
			if seenThreads[id] {
				continue
			}
			seenThreads[id] = true
			if done[id] {
				continue
			}
			threadPosts, pages, err := c.scrapeThread(ctx, id, res.ServerOffset)
			if err != nil {
				// Cancellation and hidden timestamps are crawl-level
				// conditions, not a flaky thread.
				if ctx.Err() != nil || errors.Is(err, ErrNoTimestamps) {
					return fatal(err)
				}
				res.Skipped++
				res.Errors = append(res.Errors, CrawlError{Thread: id, Page: pages, Err: err.Error()})
				o.Counter("crawler.threads_skipped").Inc()
				budget.Set(int64(c.MaxFailures - res.Skipped))
				if o.Enabled() {
					o.Eventf("crawl", "thread skipped", "thread", id, "err", err.Error())
				}
				if res.Skipped > c.MaxFailures {
					return fatal(fmt.Errorf("crawler: failure budget exhausted (%d skipped, budget %d): %w",
						res.Skipped, c.MaxFailures, err))
				}
				continue
			}
			res.Threads++
			res.Pages += pages
			posts = append(posts, threadPosts...)
			o.Counter("crawler.threads_scraped").Inc()
			o.Counter("crawler.pages").Add(int64(pages))
			o.Counter("crawler.posts_collected").Add(int64(len(threadPosts)))
			o.AddItems(1)
			if o.Enabled() {
				o.Eventf("crawl", "thread done", "thread", id, "pages", pages, "posts", len(threadPosts))
			}
			done[id] = true
			doneOrder = append(doneOrder, id)
			if sinceSave++; opts.Path != "" && sinceSave >= opts.Every {
				if err := save(); err != nil {
					return nil, err
				}
				sinceSave = 0
			}
		}
	}
	res.Retries = int(c.retries.Load() - startRetries)
	res.Dataset = trace.NewDataset(datasetName, posts)
	if opts.Path != "" {
		// The crawl is complete; the snapshot would only confuse the
		// next run.
		if err := os.Remove(opts.Path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("crawler: remove finished checkpoint: %w", err)
		}
	}
	return res, nil
}

// scrapeThread walks every page of one thread, returning the collected
// posts and how many pages were fetched. On error the page count is the
// 0-based page the failure happened on, and no posts are returned — a
// partially scraped thread is retried from scratch, never half-merged.
func (c *Crawler) scrapeThread(ctx context.Context, threadID string, offset time.Duration) ([]trace.Post, int, error) {
	var posts []trace.Post
	for page := 0; ; page++ {
		body, err := c.get(ctx, fmt.Sprintf("/thread?id=%s&page=%d", threadID, page))
		if err != nil {
			return nil, page, err
		}
		for _, pm := range postRe.FindAllStringSubmatch(body, -1) {
			author := html.UnescapeString(pm[2])
			if author == ProbeAuthor {
				continue
			}
			if pm[3] == "" {
				return nil, page, fmt.Errorf("crawler: thread %s page %d: %w", threadID, page, ErrNoTimestamps)
			}
			displayed, err := forum.ParseDisplayedTime(pm[3])
			if err != nil {
				return nil, page, fmt.Errorf("crawler: thread %s page %d: %w", threadID, page, err)
			}
			posts = append(posts, trace.Post{
				UserID: author,
				Time:   displayed.Add(-offset),
			})
		}
		m := pagesRe.FindStringSubmatch(body)
		if m == nil {
			return nil, page, fmt.Errorf("crawler: thread %s page %d: no page count", threadID, page)
		}
		total, err := strconv.Atoi(m[1])
		if err != nil {
			return nil, page, fmt.Errorf("crawler: bad page count %q: %w", m[1], err)
		}
		if page >= total-1 {
			return posts, page + 1, nil
		}
	}
}
