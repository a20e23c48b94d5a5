package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// diurnalProfile returns a normalised n-bin user profile shaped like a
// real one: the hours of a few dozen to a few hundred posts, most around a
// random daily peak and some around a second peak half a day later, so
// the histogram is sparse and full of ties.
func diurnalProfile(rng *rand.Rand, n int) []float64 {
	h := make([]float64, n)
	peak := rng.Intn(n)
	for posts := 20 + rng.Intn(300); posts > 0; posts-- {
		c := peak
		if rng.Intn(10) < 3 {
			c += n / 2
		}
		bin := (c + int(math.Round(rng.NormFloat64()*float64(n)/8))) % n
		if bin < 0 {
			bin += n
		}
		h[bin]++
	}
	p, err := Normalize(h)
	if err != nil {
		panic(err)
	}
	return p
}

// genericDiurnal returns a normalised n-bin crowd profile: a smooth day
// with a trough early in the morning and a peak in the evening.
func genericDiurnal(n int) []float64 {
	g := make([]float64, n)
	for i := range g {
		g[i] = 1 + 0.8*math.Cos(2*math.Pi*(float64(i)-20*float64(n)/24)/float64(n))
	}
	p, err := Normalize(g)
	if err != nil {
		panic(err)
	}
	return p
}

// allRotationsByDefinition is the kernel written from its definition and
// sharing no code with it: rotate with the modular index, take the median
// of a sorted copy, then sum |d - mu| left to right.
func allRotationsByDefinition(p, q []float64) []float64 {
	n := len(p)
	out := make([]float64, n)
	d := make([]float64, n)
	for r := range out {
		var cum float64
		for i := range p {
			cum += p[i] - q[(i+r)%n]
			d[i] = cum
		}
		s := append([]float64(nil), d...)
		sort.Float64s(s)
		mu := s[n/2]
		if n%2 == 0 {
			mu = (s[n/2-1] + s[n/2]) / 2
		}
		var total float64
		for _, v := range d {
			total += math.Abs(v - mu)
		}
		out[r] = total
	}
	return out
}

// TestEMDCircularAllRotationsByDefinition compares every kernel output bit
// for bit with allRotationsByDefinition. Unlike the equivalence test
// against EMDCircular, the two sides share neither the median nor the
// rotation code, so a fault in either shows up here.
func TestEMDCircularAllRotationsByDefinition(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(20))
	negZero := math.Copysign(0, -1)
	for _, n := range []int{1, 2, 3, 8, 24} {
		generic := genericDiurnal(n)
		uniform := make([]float64, n)
		for i := range uniform {
			uniform[i] = 1 / float64(n)
		}
		out := make([]float64, n)
		scratch := make([]float64, 2*n)
		for trial := 0; trial < 200; trial++ {
			var p, q []float64
			switch trial % 5 {
			case 0: // a user against the generic profile
				p, q = diurnalProfile(rng, n), generic
			case 1: // a flat bot against a user, and a user against the flat profile
				p, q = uniform, diurnalProfile(rng, n)
				if trial%2 == 1 {
					p, q = q, p
				}
			case 2: // heavy ties: masses from {0, 1, 2}, unnormalised
				p, q = make([]float64, n), make([]float64, n)
				for i := range p {
					p[i] = float64(rng.Intn(3))
				}
				copy(q, p) // a shuffle of p, so the masses match
				rng.Shuffle(n, func(i, j int) { q[i], q[j] = q[j], q[i] })
			case 3: // signed zeros in the empty cells of two users
				p, q = diurnalProfile(rng, n), diurnalProfile(rng, n)
				for i := range p {
					if p[i] == 0 && rng.Intn(2) == 0 {
						p[i] = negZero
					}
					if q[i] == 0 && rng.Intn(2) == 0 {
						q[i] = negZero
					}
				}
			case 4: // subnormal masses
				p, q = diurnalProfile(rng, n), generic
				scale := math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
				p2, q2 := make([]float64, n), make([]float64, n)
				for i := range p {
					p2[i], q2[i] = p[i]*scale, q[i]*scale
				}
				p, q = p2, q2
			}
			got, err := EMDCircularAllRotations(p, q, out, scratch)
			if err != nil {
				t.Fatalf("n=%d trial=%d: %v", n, trial, err)
			}
			want := allRotationsByDefinition(p, q)
			for r := range want {
				if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
					t.Fatalf("n=%d trial=%d rotation=%d: kernel %v (bits %#x), definition %v (bits %#x)\np=%v\nq=%v",
						n, trial, r, got[r], math.Float64bits(got[r]), want[r], math.Float64bits(want[r]), p, q)
				}
			}
		}
	}
}

// BenchmarkEMDCircularAllRotations times the placement kernel alone: 256
// profile-shaped user profiles against one generic profile, with the
// caller-owned out and scratch the placement and polish loops use.
func BenchmarkEMDCircularAllRotations(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	users := make([][]float64, 256)
	for i := range users {
		users[i] = diurnalProfile(rng, 24)
	}
	generic := genericDiurnal(24)
	out := make([]float64, 24)
	scratch := make([]float64, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EMDCircularAllRotations(users[i%len(users)], generic, out, scratch); err != nil {
			b.Fatal(err)
		}
	}
}
