package main

// Correctness gates and traffic self-checks. A run's numbers count only
// when the program's outputs are right and the generated traffic is the
// crowd the workload claims to be.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"darkcrowd/internal/core/profile"
)

// accuracyFloor is the least share of placed regular users of the
// Table I crowd that must land within ±1 zone of their true zone. Seed 1
// places all of them; the floor leaves room for a placement change that
// moves a few borderline users.
const accuracyFloor = 0.97

// polishSlack is how far, in shares of the active users, polish removals
// may stray from the share of active bots.
const polishSlack = 0.02

// activeFloor is the least share of a crowd's users over the activity
// threshold. Seed 1 puts 98.3% of the forum users and 99.9% of the Table I
// users over it.
var activeFloor = map[string]float64{crowdForums: 0.70, crowdTwitter: 0.95}

// geoReport is the part of a geolocation report the checks read.
type geoReport struct {
	Placement struct {
		Assignments map[string]int
	}
	Components []struct {
		Weight        float64
		Offset        float64
		NearestOffset int
	}
}

func decodeReport(data []byte) (*geoReport, error) {
	var r geoReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("decode report: %w", err)
	}
	if len(r.Placement.Assignments) == 0 || len(r.Components) == 0 {
		return nil, fmt.Errorf("report places no users or has no components")
	}
	return &r, nil
}

// zoneDistance is the circular distance between two UTC offsets.
func zoneDistance(a, b int) int {
	d := ((a-b)%24 + 24) % 24
	return min(d, 24-d)
}

// placementAccuracy returns the share of placed regular users within ±1
// zone of the zone their ID carries, and how many were placed.
func placementAccuracy(r *geoReport) (float64, int, error) {
	near, n := 0, 0
	for id, zone := range r.Placement.Assignments {
		bot, truth, ok := parseUserID(id)
		if !ok {
			return 0, 0, fmt.Errorf("placed user %q is not one the benchmark generated", id)
		}
		if bot {
			continue
		}
		n++
		if zoneDistance(zone, truth) <= 1 {
			near++
		}
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("no regular user placed")
	}
	return float64(near) / float64(n), n, nil
}

// componentsMatch checks a forum's mixture against its census: every
// component lies within ±1 zone of one of the forum's regions, and every
// region with at least 30% of the crowd has a component within ±1 zone.
func componentsMatch(f forumMix, r *geoReport) error {
	near := func(zone int, of []int) bool {
		for _, z := range of {
			if zoneDistance(zone, z) <= 1 {
				return true
			}
		}
		return false
	}
	var regions, comps []int
	for _, m := range f.mix {
		regions = append(regions, offsets[m.region])
	}
	for _, c := range r.Components {
		comps = append(comps, c.NearestOffset)
		if !near(c.NearestOffset, regions) {
			return fmt.Errorf("%s: component at UTC%+d (%.0f%%) is not within a zone of %v", f.name, c.NearestOffset, c.Weight*100, regions)
		}
	}
	for _, m := range f.mix {
		if m.frac >= 0.3 && !near(offsets[m.region], comps) {
			return fmt.Errorf("%s: no component within a zone of %s (UTC%+d)", f.name, m.region, offsets[m.region])
		}
	}
	return nil
}

// crowdStats summarizes generated traffic for the self-check.
type crowdStats struct {
	name               string
	users, posts, bots int
	active, activeBots int // users at or over the activity threshold
}

func statsOf(name string, c crowd) crowdStats {
	s := crowdStats{name: name, users: len(c.Users), posts: len(c.When)}
	for _, u := range c.Users {
		if u.Bot {
			s.bots++
		}
		if u.Posts >= profile.DefaultMinPosts {
			s.active++
			if u.Bot {
				s.activeBots++
			}
		}
	}
	return s
}

// total sums the census of several crowds.
func total(name string, ss []crowdStats) crowdStats {
	t := crowdStats{name: name}
	for _, s := range ss {
		t.users += s.users
		t.posts += s.posts
		t.bots += s.bots
		t.active += s.active
		t.activeBots += s.activeBots
	}
	return t
}

// checkTraffic prints the crowd's census and asserts that it is a crowd:
// enough users over the activity threshold, and polish removing about as
// many users as there are active bots.
func checkTraffic(e *env, res *result, kind string, s crowdStats, removed int) {
	activeShare := float64(s.active) / float64(s.users)
	res.check(e, "traffic."+s.name, activeShare >= activeFloor[kind],
		"%d users, %d posts, %d bots; %d users (%.1f%%) over the %d-post threshold, floor %.0f%%",
		s.users, s.posts, s.bots, s.active, activeShare*100, profile.DefaultMinPosts, activeFloor[kind]*100)
	removedShare := float64(removed) / float64(s.active)
	botShare := float64(s.activeBots) / float64(s.active)
	res.check(e, "polish."+s.name, math.Abs(removedShare-botShare) <= polishSlack,
		"polish removed %d of %d active users (%.2f%%); %.2f%% are bots, slack %.0f points",
		removed, s.active, removedShare*100, botShare*100, polishSlack*100)
}

// sameJSON reports whether two JSON documents are byte-identical once
// insignificant whitespace is removed.
func sameJSON(a, b []byte) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}
