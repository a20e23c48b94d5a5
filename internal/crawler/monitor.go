package crawler

import (
	"context"
	"fmt"
	"html"
	"strconv"
	"time"

	"darkcrowd/internal/trace"
)

// Monitor implements the §VII fallback for forums that remove timestamps
// to protect their users:
//
//	"This is actually not stopping our methodology — it is enough to
//	monitor the forum, see when posts are made and timestamp them
//	ourselves. ... One might need to monitor a sufficiently large number
//	of days, depending on the frequency of the posts, in order to collect
//	30 post per user or more necessary to build meaningful profiles."
//
// Each Poll sweeps the whole forum, diffs the post IDs against what was
// seen before, and records every new post with the *observer's* UTC clock
// as its timestamp. No server-offset probe is needed: the observer's own
// clock is already UTC. The accumulated dataset feeds the geolocation
// pipeline exactly like a scraped one.
type Monitor struct {
	// Crawler performs the page fetches (and carries the HTTP client, so
	// monitoring works through the onion network too).
	Crawler *Crawler
	// Clock supplies observation timestamps. Defaults to time.Now. Tests
	// and simulations drive it to compress months into milliseconds.
	Clock func() time.Time

	seen  map[int]bool
	name  string
	posts []trace.Post
	// FirstSweepBaseline controls whether the posts found by the very
	// first Poll are recorded (false, the default) or only used to seed
	// the seen-set (true). Pre-existing posts have unknown true times, so
	// treating the first sweep as a baseline is almost always right.
	FirstSweepBaseline bool
	polls              int
}

// NewMonitor creates a monitor accumulating into a dataset with the given
// name.
func NewMonitor(c *Crawler, datasetName string) *Monitor {
	return &Monitor{
		Crawler:            c,
		seen:               make(map[int]bool),
		name:               datasetName,
		FirstSweepBaseline: true,
	}
}

// Dataset returns the observations accumulated so far, as a dataset built
// from them at the call.
func (m *Monitor) Dataset() *trace.Dataset { return trace.NewDataset(m.name, m.posts) }

// Polls returns how many sweeps have run.
func (m *Monitor) Polls() int { return m.polls }

func (m *Monitor) now() time.Time {
	if m.Clock != nil {
		return m.Clock().UTC()
	}
	return time.Now().UTC()
}

// Poll runs PollContext with a background context.
func (m *Monitor) Poll() (int, error) {
	return m.PollContext(context.Background())
}

// PollContext sweeps every thread page of the forum once and records
// posts not seen before, timestamped with the observer's clock. It
// returns the number of new posts observed. Fetches inherit the
// crawler's robustness layer (timeouts, retries, politeness).
func (m *Monitor) PollContext(ctx context.Context) (int, error) {
	observedAt := m.now()
	baseline := m.polls == 0 && m.FirstSweepBaseline
	m.polls++

	index, err := m.Crawler.get(ctx, "/")
	if err != nil {
		return 0, fmt.Errorf("crawler: monitor index sweep: %w", err)
	}
	newPosts := 0
	seenThreads := map[string]bool{}
	for _, bm := range boardLinkRe.FindAllStringSubmatch(index, -1) {
		boardPage, err := m.Crawler.get(ctx, "/board?id="+bm[1])
		if err != nil {
			return newPosts, err
		}
		for _, tm := range threadLinkRe.FindAllStringSubmatch(boardPage, -1) {
			if seenThreads[tm[1]] {
				continue
			}
			seenThreads[tm[1]] = true
			n, err := m.pollThread(ctx, tm[1], observedAt, baseline)
			if err != nil {
				return newPosts, err
			}
			newPosts += n
		}
	}
	return newPosts, nil
}

// pollThread walks one thread's pages, recording unseen posts.
func (m *Monitor) pollThread(ctx context.Context, threadID string, observedAt time.Time, baseline bool) (int, error) {
	newPosts := 0
	for page := 0; ; page++ {
		body, err := m.Crawler.get(ctx, fmt.Sprintf("/thread?id=%s&page=%d", threadID, page))
		if err != nil {
			return newPosts, err
		}
		for _, pm := range postRe.FindAllStringSubmatch(body, -1) {
			id, err := strconv.Atoi(pm[1])
			if err != nil {
				return newPosts, fmt.Errorf("crawler: monitor: bad post id %q: %w", pm[1], err)
			}
			if m.seen[id] {
				continue
			}
			m.seen[id] = true
			author := html.UnescapeString(pm[2])
			if author == ProbeAuthor {
				continue
			}
			if baseline {
				continue
			}
			m.posts = append(m.posts, trace.Post{
				UserID: author,
				Time:   observedAt,
			})
			newPosts++
		}
		pg := pagesRe.FindStringSubmatch(body)
		if pg == nil {
			return newPosts, fmt.Errorf("crawler: monitor: thread %s page %d has no page count", threadID, page)
		}
		total, err := strconv.Atoi(pg[1])
		if err != nil {
			return newPosts, fmt.Errorf("crawler: monitor: bad page count %q: %w", pg[1], err)
		}
		if page >= total-1 {
			return newPosts, nil
		}
	}
}
