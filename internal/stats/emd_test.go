package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEMDLinear(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		p, q []float64
		want float64
	}{
		{"identical", []float64{0.5, 0.5}, []float64{0.5, 0.5}, 0},
		{"adjacent move", []float64{1, 0}, []float64{0, 1}, 1},
		{"two bins away", []float64{1, 0, 0}, []float64{0, 0, 1}, 2},
		{"split", []float64{1, 0, 0}, []float64{0.5, 0, 0.5}, 1},
		{"symmetric mass", []float64{0.5, 0, 0.5}, []float64{0, 1, 0}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := EMDLinear(tt.p, tt.q)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("EMDLinear = %g, want %g", got, tt.want)
			}
		})
	}
}

func TestEMDCircular(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		p, q []float64
		want float64
	}{
		{"identical", []float64{0.25, 0.25, 0.25, 0.25}, []float64{0.25, 0.25, 0.25, 0.25}, 0},
		// On the circle, bin 0 and bin 3 of a 4-bin circle are adjacent.
		{"wraparound", []float64{1, 0, 0, 0}, []float64{0, 0, 0, 1}, 1},
		{"linear would be 3", []float64{1, 0, 0, 0}, []float64{0, 0, 0, 1}, 1},
		{"opposite", []float64{1, 0, 0, 0}, []float64{0, 0, 1, 0}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := EMDCircular(tt.p, tt.q)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("EMDCircular = %g, want %g", got, tt.want)
			}
		})
	}
}

func TestEMDCircularNeverExceedsLinear(t *testing.T) {
	t.Parallel()
	prop := func(rawP, rawQ [12]uint8) bool {
		p := make([]float64, 12)
		q := make([]float64, 12)
		var sp, sq float64
		for i := 0; i < 12; i++ {
			p[i] = float64(rawP[i])
			q[i] = float64(rawQ[i])
			sp += p[i]
			sq += q[i]
		}
		if sp == 0 || sq == 0 {
			return true
		}
		pn, err := Normalize(p)
		if err != nil {
			return false
		}
		qn, err := Normalize(q)
		if err != nil {
			return false
		}
		lin, err1 := EMDLinear(pn, qn)
		circ, err2 := EMDCircular(pn, qn)
		if err1 != nil || err2 != nil {
			return false
		}
		return circ <= lin+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestEMDMetricProperties(t *testing.T) {
	t.Parallel()
	mk := func(raw [8]uint8) ([]float64, bool) {
		xs := make([]float64, 8)
		var s float64
		for i := range raw {
			xs[i] = float64(raw[i])
			s += xs[i]
		}
		if s == 0 {
			return nil, false
		}
		n, err := Normalize(xs)
		if err != nil {
			return nil, false
		}
		return n, true
	}

	t.Run("symmetry", func(t *testing.T) {
		prop := func(rawP, rawQ [8]uint8) bool {
			p, okP := mk(rawP)
			q, okQ := mk(rawQ)
			if !okP || !okQ {
				return true
			}
			ab, _ := EMDCircular(p, q)
			ba, _ := EMDCircular(q, p)
			return almostEqual(ab, ba, 1e-9)
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	})

	t.Run("identity", func(t *testing.T) {
		prop := func(raw [8]uint8) bool {
			p, ok := mk(raw)
			if !ok {
				return true
			}
			d, _ := EMDCircular(p, p)
			return almostEqual(d, 0, 1e-9)
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	})

	t.Run("non-negativity", func(t *testing.T) {
		prop := func(rawP, rawQ [8]uint8) bool {
			p, okP := mk(rawP)
			q, okQ := mk(rawQ)
			if !okP || !okQ {
				return true
			}
			d, _ := EMDCircular(p, q)
			return d >= -1e-12
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	})

	t.Run("triangle inequality", func(t *testing.T) {
		prop := func(rawP, rawQ, rawR [8]uint8) bool {
			p, okP := mk(rawP)
			q, okQ := mk(rawQ)
			r, okR := mk(rawR)
			if !okP || !okQ || !okR {
				return true
			}
			pq, _ := EMDCircular(p, q)
			qr, _ := EMDCircular(q, r)
			pr, _ := EMDCircular(p, r)
			return pr <= pq+qr+1e-9
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	})

	t.Run("rotation invariance", func(t *testing.T) {
		prop := func(rawP, rawQ [8]uint8, k int8) bool {
			p, okP := mk(rawP)
			q, okQ := mk(rawQ)
			if !okP || !okQ {
				return true
			}
			d1, _ := EMDCircular(p, q)
			d2, _ := EMDCircular(Rotate(p, int(k)), Rotate(q, int(k)))
			return almostEqual(d1, d2, 1e-9)
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	})
}

func TestEMDErrors(t *testing.T) {
	t.Parallel()
	if _, err := EMDLinear([]float64{1}, []float64{0.5, 0.5}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := EMDLinear(nil, nil); err == nil {
		t.Error("empty should fail")
	}
	if _, err := EMDLinear([]float64{1, 0}, []float64{0.2, 0.2}); err == nil {
		t.Error("unequal mass should fail")
	}
	if _, err := EMDCircular([]float64{1, -0.5, 0.5}, []float64{0.5, 0, 0.5}); err == nil {
		t.Error("negative mass should fail")
	}
}

// TestEMDMassOverflow pins the rejection of finite cells whose total
// mass overflows: each entry point must return ErrMassOverflow, not a NaN
// or infinite distance with a nil error. Just under the cap, the
// worst-shaped pair must give finite distances.
func TestEMDMassOverflow(t *testing.T) {
	t.Parallel()
	p, q := make([]float64, 24), make([]float64, 24)
	p[0], p[1] = 1e308, 1e308
	q[2], q[3] = 1e308, 1e308
	entries := map[string]func(p, q []float64) ([]float64, error){
		"EMDLinear": func(p, q []float64) ([]float64, error) {
			d, err := EMDLinear(p, q)
			return []float64{d}, err
		},
		"EMDCircular": func(p, q []float64) ([]float64, error) {
			d, err := EMDCircular(p, q)
			return []float64{d}, err
		},
		"EMDCircularAllRotations": func(p, q []float64) ([]float64, error) {
			return EMDCircularAllRotations(p, q, nil, nil)
		},
	}
	for name, emd := range entries {
		if d, err := emd(p, q); !errors.Is(err, ErrMassOverflow) {
			t.Errorf("%s on overflowing mass = %v, %v; want ErrMassOverflow", name, d, err)
		}
	}
	// All mass in one cell on each side, half a day apart: every cumulative
	// difference is m or 0, the largest spread the cap has to bound.
	m := math.MaxFloat64 / (4 * 24)
	p, q = make([]float64, 24), make([]float64, 24)
	p[0], q[12] = m, m
	for name, emd := range entries {
		ds, err := emd(p, q)
		if err != nil {
			t.Fatalf("%s at the cap: %v", name, err)
		}
		for _, d := range ds {
			if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
				t.Errorf("%s at the cap = %v; want finite non-negative", name, d)
			}
		}
	}
}

func TestEMDShiftCost(t *testing.T) {
	t.Parallel()
	// Shifting a concentrated distribution by k bins on a 24-bin circle
	// should cost about min(k, 24-k) per unit mass.
	base := make([]float64, 24)
	base[12] = 1
	for k := 0; k <= 23; k++ {
		shifted := Rotate(base, -k)
		d, err := EMDCircular(base, shifted)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(k)
		if k > 12 {
			want = float64(24 - k)
		}
		if !almostEqual(d, want, 1e-9) {
			t.Errorf("shift %d: EMD = %g, want %g", k, d, want)
		}
	}
}

func TestMedian(t *testing.T) {
	t.Parallel()
	med := func(xs []float64) float64 {
		return medianScratch(xs, make([]float64, len(xs)))
	}
	tests := []struct {
		in   []float64
		want float64
	}{
		{[]float64{}, 0},
		{[]float64{5}, 5},
		{[]float64{1, 3}, 2},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, tt := range tests {
		if got := med(tt.in); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("median(%v) = %g, want %g", tt.in, got, tt.want)
		}
	}
	// medianScratch must not mutate its input.
	in := []float64{3, 1, 2}
	med(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("medianScratch mutated its input")
	}
}

// TestMedianSelectionMatchesSort cross-checks the insertion-sort and
// quickselect median paths against a reference full sort, over sizes on
// both sides of the n=32 switchover, with duplicates and adversarial
// (sorted / reversed) inputs.
func TestMedianSelectionMatchesSort(t *testing.T) {
	t.Parallel()
	ref := func(xs []float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		n := len(s)
		if n == 0 {
			return 0
		}
		if n%2 == 1 {
			return s[n/2]
		}
		return (s[n/2-1] + s[n/2]) / 2
	}
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{1, 2, 3, 5, 24, 31, 32, 33, 64, 101, 500} {
		for trial := 0; trial < 20; trial++ {
			xs := make([]float64, n)
			for i := range xs {
				switch trial % 4 {
				case 0:
					xs[i] = rng.NormFloat64()
				case 1:
					xs[i] = float64(rng.Intn(5)) // heavy duplicates
				case 2:
					xs[i] = float64(i) // sorted
				default:
					xs[i] = float64(n - i) // reversed
				}
			}
			want := ref(xs)
			got := medianScratch(xs, make([]float64, n))
			if got != want {
				t.Fatalf("n=%d trial=%d: medianScratch = %g, sort median = %g", n, trial, got, want)
			}
		}
	}
}

// TestEMDCircularAllRotationsEquivalence is the kernel's bit-identity
// property: every out[r] must equal EMDCircular(p, q rotated by r) exactly,
// across random histogram pairs and sizes (including the 24-bin profile
// size the placement path uses).
func TestEMDCircularAllRotationsEquivalence(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(2018))
	for _, n := range []int{1, 2, 3, 8, 24} {
		out := make([]float64, n)
		scratch := make([]float64, 2*n)
		for trial := 0; trial < 50; trial++ {
			p := make([]float64, n)
			q := make([]float64, n)
			for i := 0; i < n; i++ {
				p[i] = rng.Float64()
				q[i] = rng.Float64()
			}
			pn, err := Normalize(p)
			if err != nil {
				t.Fatal(err)
			}
			qn, err := Normalize(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := EMDCircularAllRotations(pn, qn, out, scratch)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < n; r++ {
				qr := Rotate(qn, r) // Rotate(r)[i] = q[(i+r) mod n] = q_r[i]
				want, err := EMDCircular(pn, qr)
				if err != nil {
					t.Fatal(err)
				}
				if got[r] != want {
					t.Fatalf("n=%d trial=%d rotation=%d: kernel = %v (bits %x), EMDCircular = %v (bits %x)",
						n, trial, r, got[r], math.Float64bits(got[r]), want, math.Float64bits(want))
				}
			}
		}
	}
}

func TestEMDCircularAllRotationsErrors(t *testing.T) {
	t.Parallel()
	if _, err := EMDCircularAllRotations([]float64{1}, []float64{0.5, 0.5}, nil, nil); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := EMDCircularAllRotations(nil, nil, nil, nil); err == nil {
		t.Error("empty should fail")
	}
	if _, err := EMDCircularAllRotations([]float64{1, 0}, []float64{0.2, 0.2}, nil, nil); err == nil {
		t.Error("unequal mass should fail")
	}
}

// TestEMDCircularAllRotationsNoAlloc verifies the kernel is allocation-free
// once the caller owns out and scratch.
func TestEMDCircularAllRotationsNoAlloc(t *testing.T) {
	p := make([]float64, 24)
	q := make([]float64, 24)
	for i := range p {
		p[i] = 1.0 / 24
		q[i] = 1.0 / 24
	}
	p[3], p[4] = p[3]+0.01, p[4]-0.01
	out := make([]float64, 24)
	scratch := make([]float64, 48)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := EMDCircularAllRotations(p, q, out, scratch); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("EMDCircularAllRotations allocates %v times per call, want 0", allocs)
	}
}

func TestEMDUniformVsPeaked(t *testing.T) {
	t.Parallel()
	// A peaked profile should be far from uniform; this is the flat-profile
	// polishing criterion's discriminative signal (§IV-C).
	uniform := make([]float64, 24)
	for i := range uniform {
		uniform[i] = 1.0 / 24
	}
	peaked := make([]float64, 24)
	peaked[21] = 1
	d, err := EMDCircular(uniform, peaked)
	if err != nil {
		t.Fatal(err)
	}
	if d < 3 {
		t.Errorf("EMD(uniform, peaked) = %g, expected substantial distance", d)
	}
	if math.IsNaN(d) {
		t.Error("NaN distance")
	}
}
