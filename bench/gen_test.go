package main

import (
	"bytes"
	"testing"
)

func TestGenerateSameSeedSameBytes(t *testing.T) {
	a, b := twitterCrowd(7, 64), twitterCrowd(7, 64)
	if !bytes.Equal(a.csv(), b.csv()) {
		t.Fatal("the same seed gave different twitter traces")
	}
	fa, fb := forumCrowds(7, 8), forumCrowds(7, 8)
	for i := range fa {
		if !bytes.Equal(fa[i].csv(), fb[i].csv()) {
			t.Fatalf("the same seed gave different traces for %s", fa[i].Name)
		}
	}
	if c := twitterCrowd(8, 64); bytes.Equal(a.csv(), c.csv()) {
		t.Fatal("another seed gave the same twitter trace")
	}
}

func TestGenerateMatchesCensus(t *testing.T) {
	for i, c := range forumCrowds(1, 1) {
		f := forumMixes[i]
		if len(c.Users) != f.users || len(c.When) != f.posts {
			t.Errorf("%s: %d users, %d posts; census says %d, %d", f.name, len(c.Users), len(c.When), f.users, f.posts)
		}
	}
	tw := twitterCrowd(1, 4)
	s := statsOf(tw.Name, tw)
	if s.users-s.bots != 5637 || s.bots == 0 || s.posts != s.users*twitterPostsPerUser {
		t.Errorf("Table I at scale 4: %d regular users, %d bots, %d posts", s.users-s.bots, s.bots, s.posts)
	}
	seen := make(map[string]bool)
	for _, c := range forumCrowds(1, 1) {
		for _, u := range c.Users {
			if seen[u.ID] {
				t.Fatalf("user ID %s appears in two forums", u.ID)
			}
			seen[u.ID] = true
		}
	}
	for i := 1; i < len(tw.When); i++ {
		if tw.When[i] < tw.When[i-1] {
			t.Fatal("posts are not in time order")
		}
	}
}

func TestUserIDCarriesTrueZone(t *testing.T) {
	for _, c := range []struct {
		bot  bool
		zone int
	}{{false, 1}, {true, -3}, {false, -11}, {false, 12}, {false, 0}} {
		id := userID(c.bot, c.zone, "us-cen", 42)
		bot, zone, ok := parseUserID(id)
		if !ok || bot != c.bot || zone != c.zone {
			t.Errorf("%s parsed to bot=%v zone=%d ok=%v", id, bot, zone, ok)
		}
	}
	if _, _, ok := parseUserID("alice"); ok {
		t.Error("a foreign ID parsed")
	}
}

func TestHourCountsFollowRhythm(t *testing.T) {
	for _, n := range []int{1, 29, 90, 500} {
		for _, shift := range chronotypePattern {
			c := hourCounts(n, shift, false)
			sum := 0
			for _, v := range c {
				sum += v
			}
			if sum != n {
				t.Fatalf("hourCounts(%d, %d) sums to %d", n, shift, sum)
			}
		}
	}
	c := hourCounts(90, 0, false)
	if c[4] >= c[21] || c[13] >= c[11] {
		t.Errorf("no night trough or lunch dip: %v", c)
	}
	flat := hourCounts(240, 0, true)
	for h, v := range flat {
		if v != 10 {
			t.Fatalf("bot hour %d has %d of 240 posts", h, v)
		}
	}
}

func TestReferenceIsNormalized(t *testing.T) {
	p := referenceProfile()
	if s := p.Sum(); s < 0.999999 || s > 1.000001 {
		t.Fatalf("reference sums to %v", s)
	}
}

// BenchmarkGenerate reports the generator's rate in posts per second.
func BenchmarkGenerate(b *testing.B) {
	posts := 0
	for i := 0; i < b.N; i++ {
		posts += len(twitterCrowd(uint64(i), 4).When)
	}
	b.ReportMetric(float64(posts)/b.Elapsed().Seconds(), "posts/s")
}
