package pipeline

import (
	"bytes"
	"cmp"
	"slices"
	"sync"
	"testing"
)

// ingestSenders and ingestLines shape the ingest load the way the
// serve-ingest workload does: two closed-loop senders, 256 lines a body.
const (
	ingestSenders = 2
	ingestLines   = 256
)

// ingestBodies renders the refitCrowd as the serve-ingest workload posts
// its crowd: users split between the senders by index parity, each
// sender's posts in time order, as NDJSON bodies of ingestLines lines.
func ingestBodies(tb testing.TB, seed int64) (bodies [ingestSenders][][]byte, posts int) {
	body, users := refitCrowd(seed)
	index := make(map[string]int, len(users))
	for u, id := range users {
		index[id] = u
	}
	type line struct {
		sec  int64
		at   int // position in the body: ties keep body order
		user int
		text []byte
	}
	var lines []line
	for _, text := range bytes.SplitAfter(body, []byte{'\n'}) {
		if len(text) == 0 {
			continue
		}
		user, sec, ok := parseIngestLine(bytes.TrimSpace(text))
		if !ok {
			tb.Fatalf("unparsable crowd line %q", text)
		}
		lines = append(lines, line{sec: sec, at: len(lines), user: index[string(user)], text: text})
	}
	slices.SortFunc(lines, func(a, b line) int { return cmp.Or(cmp.Compare(a.sec, b.sec), cmp.Compare(a.at, b.at)) })
	var cur [ingestSenders][]byte
	var n [ingestSenders]int
	for _, l := range lines {
		h := l.user % ingestSenders
		cur[h] = append(cur[h], l.text...)
		if n[h]++; n[h] == ingestLines {
			bodies[h] = append(bodies[h], cur[h])
			cur[h], n[h] = nil, 0
		}
	}
	for h := range cur {
		if n[h] > 0 {
			bodies[h] = append(bodies[h], cur[h])
		}
	}
	return bodies, len(lines)
}

// BenchmarkDaemonIngest times Daemon.Ingest in process: a fresh daemon
// with no snapshot path takes the refitCrowd (5,900 users, 90 posts each)
// from two goroutines in 256-line bodies, folding at the default
// CompactEvery. It reports ns/post; daemon construction is not timed.
func BenchmarkDaemonIngest(b *testing.B) {
	bodies, posts := ingestBodies(b, 1)
	ref := testReference(b)
	if _, err := ref(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := NewDaemon(ServeConfig{Reference: ref, RefitDebounce: -1})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		var wg sync.WaitGroup
		for _, sender := range bodies {
			wg.Add(1)
			go func(sender [][]byte) {
				defer wg.Done()
				for _, body := range sender {
					if _, err := d.Ingest(bytes.NewReader(body)); err != nil {
						b.Error(err)
						return
					}
				}
			}(sender)
		}
		wg.Wait()
		b.StopTimer()
		if got := d.Healthz().Posts; got != posts {
			b.Fatalf("daemon holds %d posts, want %d", got, posts)
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*posts), "ns/post")
}
