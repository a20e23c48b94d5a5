package pipeline

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// refitCrowd renders, as ingest NDJSON, a crowd the size of the Table I
// crowd at scale 4: 5,900 users with 90 posts each over one year, 5% of
// them bots posting at uniformly random hours, the rest on a diurnal
// rhythm in one of a few UTC offsets. It stands in for the benchmark's
// Table I crowd without the seconds a synth.TwitterDataset build takes.
func refitCrowd(seed int64) (body []byte, users []string) {
	const (
		nUsers  = 5900
		perUser = 90
	)
	// Local-hour weights: low at night, a midday plateau, an evening peak.
	var cum [24]float64
	total := 0.0
	for h := range cum {
		total += 0.3 + math.Exp(-float64((h-13)*(h-13))/18) + 1.5*math.Exp(-float64((h-21)*(h-21))/6)
		cum[h] = total
	}
	offsets := []int{-5, -3, 0, 1, 3, 5, 8, 9}
	start := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(seed))
	var b bytes.Buffer
	users = make([]string, nUsers)
	for u := range users {
		off := offsets[rng.Intn(len(offsets))]
		bot := rng.Float64() < 0.05
		users[u] = fmt.Sprintf("u%05d%+d", u, off)
		for k := 0; k < perUser; k++ {
			hour := rng.Intn(24)
			if !bot {
				x := rng.Float64() * total
				hour = 0
				for cum[hour] < x {
					hour++
				}
				hour = (hour - off + 24) % 24
			}
			at := start.Add(time.Duration(rng.Intn(365)*24+hour)*time.Hour + time.Duration(rng.Intn(3600))*time.Second)
			fmt.Fprintf(&b, "{\"user_id\":%q,\"time\":%q}\n", users[u], at.Format(time.RFC3339))
		}
	}
	return b.Bytes(), users
}

// BenchmarkRefit times Daemon.Report on the refitCrowd: "cold" with no
// published view and an empty zone cache, so polish pass 1 scans every
// user (a freshly fed daemon's drain /report), and "warm" after one user
// gains a post in a new activity cell, so pass 1 scans that user alone.
func BenchmarkRefit(b *testing.B) {
	body, users := refitCrowd(1)
	d, err := NewDaemon(ServeConfig{Reference: testReference(b), RefitDebounce: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Ingest(bytes.NewReader(body)); err != nil {
		b.Fatal(err)
	}
	body = nil
	if _, err := d.Report(); err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d.view.Store(nil)
			for s := range d.shards {
				clear(d.shards[s].zones)
			}
			b.StartTimer()
			if _, err := d.Report(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		day := time.Date(2019, 1, 1, 12, 0, 0, 0, time.UTC)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// A day past the crowd's year: a new activity cell.
			post := fmt.Sprintf("{\"user_id\":%q,\"time\":%q}\n", users[i%len(users)], day.AddDate(0, 0, i).Format(time.RFC3339))
			if _, err := d.Ingest(strings.NewReader(post)); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := d.Report(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
