package main

// The benchmark's own input generator. It does not use the system's
// synthetic-crowd generator (internal/synth), so a change to that
// generator cannot move the benchmark's inputs.
//
// Every regular user posts on one diurnal rhythm — a night trough, a lunch
// dip and a 21–22 h peak, the shape of the paper's Fig. 1–2 — shifted by a
// per-user chronotype of −1, 0 or +1 hour and by the user's time zone.
// Posts fall on the 365 local days of 2017 with no daylight saving time,
// so a user's true zone is one fixed offset, which the user ID carries.
// Bots post uniformly around the clock: the flat profiles polishing must
// remove (§IV-C).

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"time"

	"darkcrowd"
)

// rhythm is a regular user's posting propensity per local hour.
var rhythm = [24]float64{
	0.40, 0.22, 0.12, 0.07, 0.05, 0.06, 0.12, 0.25, 0.44, 0.57, 0.62, 0.64,
	0.58, 0.49, 0.57, 0.65, 0.71, 0.77, 0.83, 0.90, 0.96, 1.00, 0.97, 0.66,
}

// offsets are the standard UTC offsets of every census region.
var offsets = map[string]int{
	"ae": 4, "au-nsw": 10, "br": -3, "de": 1, "fi": 2, "fr": 1, "it": 1,
	"jp": 9, "my": 8, "pl": 1, "ru-msk": 3, "tr": 3, "uk": 0,
	"us-ca": -8, "us-cen": -6, "us-il": -6, "us-ny": -5, "us-pac": -8,
}

// volumeSigma is the lognormal spread of per-user posting volume.
const volumeSigma = 0.35

// twitterPostsPerUser is the mean volume of the Table I crowd.
const twitterPostsPerUser = 90

// year2017 is 2017-01-01T00:00:00Z; posts fall on local days 0..364.
var year2017 = time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC).Unix()

// group is one region's share of a crowd.
type group struct {
	region      string
	users, bots int
}

// census is one crowd to generate: its groups and its total post count.
type census struct {
	name   string
	groups []group
	posts  int
}

// share is one region's part of a forum crowd.
type share struct {
	region string
	frac   float64
}

// forumMix is one §V forum: its census after cleaning and the region mix
// the paper uncovered for its crowd.
type forumMix struct {
	name         string
	users, posts int
	mix          []share
}

var forumMixes = []forumMix{
	{"CRD Club", 209, 14809, []share{{"ru-msk", 0.62}, {"ae", 0.38}}},
	{"Italian DarkNet Community", 52, 1711, []share{{"it", 0.84}, {"fi", 0.16}}},
	{"Dream Market", 189, 14499, []share{{"de", 0.68}, {"us-cen", 0.32}}},
	{"The Majestic Garden", 638, 75875, []share{{"us-cen", 0.64}, {"fr", 0.36}}},
	{"Pedo Support Community", 290, 44876, []share{{"us-pac", 0.47}, {"br", 0.36}, {"ae", 0.17}}},
}

// tableI is the paper's Table I: active Twitter users per region.
var tableI = []struct {
	region string
	users  int
}{
	{"br", 3763}, {"us-ca", 2868}, {"fi", 73}, {"fr", 2222}, {"de", 470},
	{"us-il", 794}, {"it", 734}, {"jp", 3745}, {"my", 1714}, {"au-nsw", 151},
	{"us-ny", 1417}, {"pl", 375}, {"tr", 1019}, {"uk", 3231},
}

// forumCensuses returns the five forum crowds with users and posts divided
// by shrink (1 is paper scale).
func forumCensuses(shrink int) []census {
	out := make([]census, 0, len(forumMixes))
	for _, f := range forumMixes {
		users := max(f.users/shrink, len(f.mix))
		c := census{name: f.name, posts: max(f.posts/shrink, users)}
		left := users
		for i, m := range f.mix {
			n := int(float64(users)*m.frac + 0.5)
			if i == len(f.mix)-1 || n > left {
				n = left
			}
			left -= n
			c.groups = append(c.groups, group{region: m.region, users: n})
		}
		out = append(out, c)
	}
	return out
}

// twitterCensus returns the Table I crowd at the given scale divisor, with
// 5% flat-profile bots added per region.
func twitterCensus(scale int) census {
	c := census{name: "twitter"}
	total := 0
	for _, r := range tableI {
		users := max(r.users/scale, 1)
		bots := max(users/20, 1)
		c.groups = append(c.groups, group{region: r.region, users: users, bots: bots})
		total += users + bots
	}
	c.posts = total * twitterPostsPerUser
	return c
}

// chronotypePattern assigns the rhythm shift, in hours, by a user's rank
// in its group: a fifth post an hour early, a fifth an hour late.
var chronotypePattern = [5]int{0, -1, 0, 1, 0}

// dayStrides are the steps coprime to 365: stepping by one from any start
// visits 365 distinct days.
var dayStrides = func() []int {
	var out []int
	for s := 1; s < 365; s++ {
		if s%5 != 0 && s%73 != 0 {
			out = append(out, s)
		}
	}
	return out
}()

// user is one generated crowd member.
type user struct {
	ID    string
	Zone  int // true UTC offset
	Bot   bool
	Shift int // chronotype: the rhythm's shift in hours
	Posts int
}

// crowd is a generated trace: its users and their posts in time order.
type crowd struct {
	Name  string
	Users []user
	When  []int64 // Unix seconds, ascending
	Who   []int32 // index into Users, per post
}

// userID renders an ID that carries the user's kind and true zone, e.g.
// "up01-de-00042" (regular, UTC+1) or "bm03-br-00007" (bot, UTC-3).
func userID(bot bool, zone int, region string, index int) string {
	kind, sign := byte('u'), byte('p')
	if bot {
		kind = 'b'
	}
	if zone < 0 {
		sign, zone = 'm', -zone
	}
	return fmt.Sprintf("%c%c%02d-%s-%05d", kind, sign, zone, region, index)
}

// parseUserID recovers the kind and true zone from a userID.
func parseUserID(id string) (bot bool, zone int, ok bool) {
	if len(id) < 4 || (id[0] != 'u' && id[0] != 'b') || (id[1] != 'p' && id[1] != 'm') {
		return false, 0, false
	}
	if id[2] < '0' || id[2] > '9' || id[3] < '0' || id[3] > '9' {
		return false, 0, false
	}
	zone = int(id[2]-'0')*10 + int(id[3]-'0')
	if id[1] == 'm' {
		zone = -zone
	}
	return id[0] == 'b', zone, true
}

// hourCounts splits n posts over the 24 local hours in proportion to the
// user's shifted rhythm (flat for a bot), by largest remainder.
func hourCounts(n, shift int, bot bool) [24]int {
	var want [24]float64
	var sum float64
	for h := range want {
		want[h] = 1
		if !bot {
			want[h] = rhythm[((h-shift)%24+24)%24]
		}
		sum += want[h]
	}
	var counts [24]int
	var frac [24]float64
	left := n
	for h := range want {
		q := float64(n) * want[h] / sum
		counts[h] = int(q)
		frac[h] = q - float64(counts[h])
		left -= counts[h]
	}
	for ; left > 0; left-- {
		best := 0
		for h := range frac {
			if frac[h] > frac[best] {
				best = h
			}
		}
		counts[best]++
		frac[best] = -1
	}
	return counts
}

// appendPosts appends n posts of u in UTC Unix seconds. Each hour's posts
// land on distinct days of 2017 at random seconds, so every post opens its
// own (day, hour) activity cell.
func appendPosts(r *rand.Rand, buf []int64, u *user, n int) []int64 {
	for h, c := range hourCounts(n, u.Shift, u.Bot) {
		day, stride := r.IntN(365), dayStrides[r.IntN(len(dayStrides))]
		for k := 0; k < c; k++ {
			buf = append(buf, year2017+int64(day)*86400+int64(h-u.Zone)*3600+int64(r.IntN(3600)))
			day = (day + stride) % 365
		}
	}
	return buf
}

// generate builds one crowd from its census; crowds generated together
// number their users from first so that their IDs differ.
//
// The crowd's shape does not depend on the seed: by rank within its group
// each user gets a lognormal volume quantile and a chronotype, and its
// posts follow its rhythm up to rounding. The EM fit's cost depends on
// that shape — with sampled hours it flips between about 15 and 200
// iterations from one draw to the next — so a sampled shape would make
// timings differ more between seeds than any change worth measuring. The
// seed decides which ID each user gets, the days and seconds of its posts,
// and so the order of every trace.
func generate(seed, stream uint64, c census, first int) crowd {
	r := rand.New(rand.NewPCG(seed, stream))
	out := crowd{Name: c.name}
	var regions []string
	var weights []float64
	var wsum float64
	for _, g := range c.groups {
		zone, ok := offsets[g.region]
		if !ok {
			panic("bench: region without an offset: " + g.region)
		}
		for i := 0; i < g.users+g.bots; i++ {
			u := user{Zone: zone, Bot: i >= g.users}
			rank, of := i, g.users
			if u.Bot {
				rank, of = i-g.users, g.bots
			} else {
				u.Shift = chronotypePattern[rank%len(chronotypePattern)]
			}
			z := math.Sqrt2 * math.Erfinv(2*(float64(rank)+0.5)/float64(of)-1)
			w := math.Exp(volumeSigma * z)
			weights = append(weights, w)
			wsum += w
			regions = append(regions, g.region)
			out.Users = append(out.Users, u)
		}
	}
	// One post each, the rest split by weight; the rounding remainder goes
	// to the first users so that the total is exact.
	spare, given := c.posts-len(out.Users), 0
	for i := range out.Users {
		n := int(float64(spare) * weights[i] / wsum)
		out.Users[i].Posts = 1 + n
		given += n
	}
	for i := 0; given < spare; i++ {
		out.Users[i%len(out.Users)].Posts++
		given++
	}
	for i, idx := range r.Perm(len(out.Users)) {
		u := &out.Users[i]
		u.ID = userID(u.Bot, u.Zone, regions[i], first+idx)
	}

	origin := year2017 - 86400 // earliest UTC instant a post can have
	keys := make([]uint64, 0, c.posts)
	var times []int64
	for ui := range out.Users {
		times = appendPosts(r, times[:0], &out.Users[ui], out.Users[ui].Posts)
		for _, t := range times {
			keys = append(keys, uint64(t-origin)<<24|uint64(ui))
		}
	}
	slices.Sort(keys)
	out.When = make([]int64, len(keys))
	out.Who = make([]int32, len(keys))
	for i, k := range keys {
		out.When[i] = int64(k>>24) + origin
		out.Who[i] = int32(k & (1<<24 - 1))
	}
	return out
}

// forumCrowds generates the five forum crowds.
func forumCrowds(seed uint64, shrink int) []crowd {
	var out []crowd
	first := 0
	for i, c := range forumCensuses(shrink) {
		cr := generate(seed, uint64(i+1), c, first)
		first += len(cr.Users)
		out = append(out, cr)
	}
	return out
}

// twitterCrowd generates the Table I crowd at the given scale divisor.
func twitterCrowd(seed uint64, scale int) crowd {
	return generate(seed, 100, twitterCensus(scale), 0)
}

// stampPrefixes holds "YYYY-MM-DDT" for every UTC day a post can fall on,
// so formatting a timestamp needs no calendar arithmetic.
var stampPrefixes = func() []string {
	out := make([]string, 368)
	for d := range out {
		out[d] = time.Unix(year2017+int64(d-1)*86400, 0).UTC().Format("2006-01-02T")
	}
	return out
}()

// appendStamp appends t as RFC 3339 in UTC, e.g. 2017-03-04T05:06:07Z.
func appendStamp(buf []byte, t int64) []byte {
	rel := t - (year2017 - 86400)
	buf = append(buf, stampPrefixes[rel/86400]...)
	s := rel % 86400
	h, m, sec := s/3600, s/60%60, s%60
	return append(buf, byte('0'+h/10), byte('0'+h%10), ':', byte('0'+m/10), byte('0'+m%10), ':',
		byte('0'+sec/10), byte('0'+sec%10), 'Z')
}

// csv renders the crowd as the CLI's CSV trace format.
func (c *crowd) csv() []byte {
	buf := make([]byte, 0, len(c.When)*36+32)
	buf = append(buf, "user_id,time_rfc3339\n"...)
	for i, t := range c.When {
		buf = append(buf, c.Users[c.Who[i]].ID...)
		buf = append(buf, ',')
		buf = appendStamp(buf, t)
		buf = append(buf, '\n')
	}
	return buf
}

// appendNDJSON appends one /ingest line.
func appendNDJSON(buf []byte, id string, t int64) []byte {
	buf = append(buf, `{"user_id":"`...)
	buf = append(buf, id...)
	buf = append(buf, `","time":"`...)
	buf = appendStamp(buf, t)
	return append(buf, "\"}\n"...)
}

// referenceProfile is the generic local-frame profile the generator
// implies: the rhythm averaged over the chronotypes, normalized.
func referenceProfile() darkcrowd.Profile {
	var p darkcrowd.Profile
	var sum float64
	for h := range p {
		for _, shift := range chronotypePattern {
			p[h] += rhythm[((h-shift)%24+24)%24]
		}
		sum += p[h]
	}
	for h := range p {
		p[h] /= sum
	}
	return p
}

// writeReferenceFile writes the reference the CLI loads with -ref to dir.
func writeReferenceFile(dir string) (string, error) {
	path := filepath.Join(dir, "reference.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := (&darkcrowd.Reference{Generic: referenceProfile()}).WriteJSON(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
