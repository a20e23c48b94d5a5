// Package forum implements a phpBB-style message-board engine, the
// substrate standing in for the five Dark Web forums of §V (CRD Club, the
// Italian DarkNet Community, Dream Market, The Majestic Garden, the Pedo
// Support Community).
//
// The engine models exactly what the paper's collection procedure needs:
//
//   - members, boards, threads and paginated posts rendered as HTML over
//     net/http (hostable as a hidden service via internal/onion);
//   - a Welcome thread where a fresh member can post to compare the
//     displayed server time against their own clock — "we sign up in the
//     forum and write a post in the Welcome or Spam thread to calculate
//     the offset between the server time and UTC" (§V);
//   - a configurable server clock offset: displayed timestamps carry no
//     time-zone information and may be "deliberately shifted" (§V);
//   - bulk import of a synthetic crowd's activity trace, so the forum's
//     content reproduces a ground-truth posting history.
package forum

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"darkcrowd/internal/trace"
)

// TimeLayout is how the forum renders timestamps: server local time with no
// zone designator, as real forum software typically does.
const TimeLayout = "2006-01-02 15:04:05"

// DefaultPageSize is the number of posts per thread page.
const DefaultPageSize = 20

// WelcomeThreadTitle names the thread used for server-offset probes.
const WelcomeThreadTitle = "Welcome"

// Errors returned by the engine.
var (
	ErrNotFound     = errors.New("forum: not found")
	ErrBadRequest   = errors.New("forum: bad request")
	ErrNameTaken    = errors.New("forum: member name already taken")
	ErrEmptyContent = errors.New("forum: empty content")
)

// Member is a registered forum user.
type Member struct {
	ID       int
	Name     string
	JoinedAt time.Time // true UTC
}

// Board is a top-level section of the forum.
type Board struct {
	ID          int
	Name        string
	Description string
}

// Thread is a discussion within a board.
type Thread struct {
	ID      int
	BoardID int
	Title   string
}

// Post is one message. At is the true UTC instant; the engine renders
// At + ServerOffset when displaying.
type Post struct {
	ID       int
	ThreadID int
	Author   string
	Body     string
	At       time.Time
}

// Config configures a Forum.
type Config struct {
	// Name is the forum's display name.
	Name string
	// ServerOffset shifts every displayed timestamp away from UTC,
	// modelling a server clock in another zone or deliberately skewed.
	ServerOffset time.Duration
	// PageSize is the number of posts per page
	// (default DefaultPageSize).
	PageSize int
	// Clock supplies "now" for live posts; defaults to time.Now. Tests
	// and imports override it for determinism.
	Clock func() time.Time
	// TimestampJitter, when positive, displays each post's timestamp
	// shifted by a deterministic pseudo-random amount in
	// [-TimestampJitter, +TimestampJitter] — the §VII countermeasure
	// "forum shows and timestamps posts with random delay". The paper
	// argues the delay "must be of at least a few hours" to be
	// effective; the discussion-delay experiment verifies that.
	TimestampJitter time.Duration
	// HideTimestamps removes timestamps from rendered posts entirely
	// (the §VII "no timestamp on posts" countermeasure). Scrapers must
	// fall back to monitoring the forum and timestamping posts
	// themselves (crawler.Monitor).
	HideTimestamps bool
	// FailEvery, when positive, makes every FailEvery-th HTTP request
	// answer 503 — a deterministic stand-in for the intermittent
	// overload a real hidden service shows, used to exercise crawler
	// retries end to end.
	FailEvery int
	// Latency, when positive, delays every HTTP response — a slow
	// server, for exercising crawler timeouts.
	Latency time.Duration
}

// Forum is the engine state.
type Forum struct {
	cfg Config

	// reqCount numbers HTTP requests for the FailEvery fault knob.
	reqCount atomic.Int64

	mu      sync.RWMutex
	members map[string]*Member // by name
	boards  []*Board
	threads map[int]*Thread
	posts   map[int][]*Post // by thread ID, chronological

	nextMember, nextBoard, nextThread, nextPost int

	welcomeThread int
}

// New creates a forum with a Welcome board and thread.
func New(cfg Config) *Forum {
	if cfg.PageSize <= 0 {
		cfg.PageSize = DefaultPageSize
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	// The Reception board and Welcome thread are built directly, before
	// the forum is published to any other goroutine: construction cannot
	// fail, so it never has to panic.
	welcome := &Board{ID: 1, Name: "Reception", Description: "Introductions, rules, and the Welcome thread"}
	th := &Thread{ID: 1, BoardID: welcome.ID, Title: WelcomeThreadTitle}
	f := &Forum{
		cfg:        cfg,
		members:    make(map[string]*Member),
		boards:     []*Board{welcome},
		threads:    map[int]*Thread{th.ID: th},
		posts:      make(map[int][]*Post),
		nextMember: 1, nextBoard: 2, nextThread: 2, nextPost: 1,

		welcomeThread: th.ID,
	}
	return f
}

// Name returns the forum's display name.
func (f *Forum) Name() string { return f.cfg.Name }

// ServerOffset returns the configured clock skew.
func (f *Forum) ServerOffset() time.Duration { return f.cfg.ServerOffset }

// WelcomeThreadID returns the ID of the Welcome thread.
func (f *Forum) WelcomeThreadID() int { return f.welcomeThread }

// DisplayTime converts a true UTC instant to the forum's displayed server
// time (before per-post jitter).
func (f *Forum) DisplayTime(t time.Time) time.Time {
	return t.UTC().Add(f.cfg.ServerOffset)
}

// displayTimeFor renders the timestamp shown for a specific post,
// including the per-post jitter. The jitter is a deterministic hash of the
// post ID so repeated page loads agree, as a real implementation of the
// countermeasure would need (otherwise diffs between loads leak the truth).
func (f *Forum) displayTimeFor(p *Post) time.Time {
	shown := f.DisplayTime(p.At)
	if f.cfg.TimestampJitter <= 0 {
		return shown
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", p.ID)
	span := int64(2*f.cfg.TimestampJitter + 1)
	jitter := time.Duration(int64(h.Sum64()%uint64(span))) - f.cfg.TimestampJitter
	return shown.Add(jitter)
}

// HidesTimestamps reports whether the forum suppresses timestamps.
func (f *Forum) HidesTimestamps() bool { return f.cfg.HideTimestamps }

// ParseDisplayedTime parses a rendered timestamp back to the (zone-less)
// server time.
func ParseDisplayedTime(s string) (time.Time, error) {
	t, err := time.Parse(TimeLayout, s)
	if err != nil {
		return time.Time{}, fmt.Errorf("forum: parse displayed time %q: %w", s, err)
	}
	return t, nil
}

// AddBoard creates a new board.
func (f *Forum) AddBoard(name, desc string) (*Board, error) {
	if strings.TrimSpace(name) == "" {
		return nil, fmt.Errorf("%w: board name", ErrEmptyContent)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	b := &Board{ID: f.nextBoard, Name: name, Description: desc}
	f.nextBoard++
	f.boards = append(f.boards, b)
	return b, nil
}

// Boards lists the boards in creation order.
func (f *Forum) Boards() []*Board {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]*Board, len(f.boards))
	copy(out, f.boards)
	return out
}

// Register creates a member with a unique name.
func (f *Forum) Register(name string) (*Member, error) {
	if strings.TrimSpace(name) == "" {
		return nil, fmt.Errorf("%w: member name", ErrEmptyContent)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.members[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrNameTaken, name)
	}
	m := &Member{ID: f.nextMember, Name: name, JoinedAt: f.cfg.Clock().UTC()}
	f.nextMember++
	f.members[name] = m
	return m, nil
}

// MemberByName looks a member up.
func (f *Forum) MemberByName(name string) (*Member, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	m, ok := f.members[name]
	if !ok {
		return nil, fmt.Errorf("%w: member %q", ErrNotFound, name)
	}
	return m, nil
}

// NumMembers returns the number of registered members.
func (f *Forum) NumMembers() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.members)
}

// NewThread opens a thread on a board.
func (f *Forum) NewThread(boardID int, title string) (*Thread, error) {
	if strings.TrimSpace(title) == "" {
		return nil, fmt.Errorf("%w: thread title", ErrEmptyContent)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	found := false
	for _, b := range f.boards {
		if b.ID == boardID {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("%w: board %d", ErrNotFound, boardID)
	}
	th := &Thread{ID: f.nextThread, BoardID: boardID, Title: title}
	f.nextThread++
	f.threads[th.ID] = th
	return th, nil
}

// Threads lists a board's threads by ID.
func (f *Forum) Threads(boardID int) []*Thread {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var out []*Thread
	for _, th := range f.threads {
		if th.BoardID == boardID {
			out = append(out, th)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Thread returns a thread by ID.
func (f *Forum) Thread(id int) (*Thread, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	th, ok := f.threads[id]
	if !ok {
		return nil, fmt.Errorf("%w: thread %d", ErrNotFound, id)
	}
	return th, nil
}

// PostNow appends a post authored at the forum clock's current instant.
func (f *Forum) PostNow(threadID int, author, body string) (*Post, error) {
	return f.PostAt(threadID, author, body, f.cfg.Clock())
}

// PostAt appends a post with an explicit true-UTC timestamp (used by the
// crowd importer). The member must exist.
func (f *Forum) PostAt(threadID int, author, body string, at time.Time) (*Post, error) {
	if strings.TrimSpace(body) == "" {
		return nil, fmt.Errorf("%w: post body", ErrEmptyContent)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.threads[threadID]; !ok {
		return nil, fmt.Errorf("%w: thread %d", ErrNotFound, threadID)
	}
	if _, ok := f.members[author]; !ok {
		return nil, fmt.Errorf("%w: member %q", ErrNotFound, author)
	}
	p := &Post{
		ID:       f.nextPost,
		ThreadID: threadID,
		Author:   author,
		Body:     body,
		At:       at.UTC(),
	}
	f.nextPost++
	f.posts[threadID] = append(f.posts[threadID], p)
	// Keep chronological order even for out-of-order imports.
	list := f.posts[threadID]
	for i := len(list) - 1; i > 0 && list[i].At.Before(list[i-1].At); i-- {
		list[i], list[i-1] = list[i-1], list[i]
	}
	return p, nil
}

// PostsPage returns one page of a thread's posts (0-based) and the total
// page count.
func (f *Forum) PostsPage(threadID, page int) ([]*Post, int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	list, ok := f.posts[threadID]
	if !ok {
		if _, exists := f.threads[threadID]; !exists {
			return nil, 0, fmt.Errorf("%w: thread %d", ErrNotFound, threadID)
		}
		return nil, 0, nil
	}
	pages := (len(list) + f.cfg.PageSize - 1) / f.cfg.PageSize
	if page < 0 || (page >= pages && pages > 0) {
		return nil, pages, fmt.Errorf("%w: page %d of %d", ErrNotFound, page, pages)
	}
	lo := page * f.cfg.PageSize
	hi := lo + f.cfg.PageSize
	if hi > len(list) {
		hi = len(list)
	}
	out := make([]*Post, hi-lo)
	copy(out, list[lo:hi])
	return out, pages, nil
}

// NumPosts counts all posts in the forum.
func (f *Forum) NumPosts() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	total := 0
	for _, list := range f.posts {
		total += len(list)
	}
	return total
}

// ImportOptions tunes ImportCrowd.
type ImportOptions struct {
	// BoardNames seeds discussion boards; a reasonable default set is
	// used when empty.
	BoardNames []string
	// ThreadsPerBoard controls how many threads each board gets
	// (default 6).
	ThreadsPerBoard int
}

// ImportCrowd registers every user of an activity trace as a member and
// replays every post into discussion threads, preserving the true UTC
// timestamps. Posts are distributed across threads deterministically by
// post index.
func (f *Forum) ImportCrowd(ds *trace.Dataset, opts ImportOptions) error {
	if len(opts.BoardNames) == 0 {
		opts.BoardNames = []string{"Main", "Market", "Bad Stuff"}
	}
	if opts.ThreadsPerBoard <= 0 {
		opts.ThreadsPerBoard = 6
	}
	var threadIDs []int
	for _, bn := range opts.BoardNames {
		b, err := f.AddBoard(bn, "Imported board")
		if err != nil {
			return fmt.Errorf("forum: import board %q: %w", bn, err)
		}
		for i := 0; i < opts.ThreadsPerBoard; i++ {
			th, err := f.NewThread(b.ID, fmt.Sprintf("%s discussion #%d", bn, i+1))
			if err != nil {
				return fmt.Errorf("forum: import thread: %w", err)
			}
			threadIDs = append(threadIDs, th.ID)
		}
	}
	for _, u := range ds.Users() {
		if _, err := f.Register(u); err != nil {
			return fmt.Errorf("forum: import member %q: %w", u, err)
		}
	}
	sorted := ds.SortedByTime()
	for i := 0; i < sorted.NumPosts(); i++ {
		p := sorted.Post(i)
		thread := threadIDs[i%len(threadIDs)]
		body := fmt.Sprintf("Post %d by %s.", i+1, p.UserID)
		if _, err := f.PostAt(thread, p.UserID, body, p.Time); err != nil {
			return fmt.Errorf("forum: import post %d: %w", i, err)
		}
	}
	return nil
}
