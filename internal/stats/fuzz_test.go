package stats

// Fuzz targets for the EMD primitives, mirroring the wire-codec fuzzers in
// internal/onion: the distances must never panic — malformed input
// (length mismatch, negative mass, NaN, Inf, a total mass that overflows)
// must surface as an error —
// and whenever they accept a pair they must behave like a metric:
// non-negative, exactly symmetric, and zero on identical inputs.

import (
	"encoding/binary"
	"math"
	"testing"
)

// decodeHistogramPair splits fuzz bytes into two float64 slices: the first
// byte picks the length split, the rest is consumed in 8-byte chunks.
// Arbitrary bit patterns decode to arbitrary floats — including NaN, Inf
// and negatives — which is exactly the hostile input space we want.
func decodeHistogramPair(data []byte) (p, q []float64) {
	if len(data) == 0 {
		return nil, nil
	}
	split := int(data[0])
	data = data[1:]
	var vals []float64
	for len(data) >= 8 {
		vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data[:8])))
		data = data[8:]
	}
	if split > len(vals) {
		split = len(vals)
	}
	return vals[:split], vals[split:]
}

func seedHistograms(f *testing.F) {
	f.Helper()
	f.Add([]byte{})
	// Two identical singleton histograms.
	buf := []byte{1}
	for _, v := range []float64{1, 1} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	f.Add(buf)
	// A valid 3/3 pair.
	buf = []byte{3}
	for _, v := range []float64{0.2, 0.3, 0.5, 0.5, 0.3, 0.2} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	f.Add(buf)
	// Negative mass and NaN must be rejected, not propagated.
	buf = []byte{2}
	for _, v := range []float64{-1, 2, math.NaN(), 1} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	f.Add(buf)
	// Length mismatch.
	buf = []byte{1}
	for _, v := range []float64{1, 0.5, 0.5} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	f.Add(buf)
	// Finite cells whose total mass overflows: Sum is +Inf on both sides
	// and Inf - Inf is NaN, which no mass-mismatch comparison catches; the
	// distances would be NaN or +Inf. They must be rejected.
	buf = []byte{24}
	for i := 0; i < 48; i++ {
		v := 0.0
		if i == 0 || i == 1 || i == 24+2 || i == 24+3 {
			v = 1e308
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	f.Add(buf)
}

// fuzzEMD drives one EMD variant through the metric properties.
func fuzzEMD(f *testing.F, emd func(p, q []float64) (float64, error)) {
	seedHistograms(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, q := decodeHistogramPair(data)
		d, err := emd(p, q)
		if err != nil {
			return // rejected input: an error is the correct outcome
		}
		if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
			t.Fatalf("EMD(%v, %v) = %v; want finite non-negative", p, q, d)
		}
		back, err := emd(q, p)
		if err != nil {
			t.Fatalf("EMD accepted (p,q) but rejected (q,p): %v", err)
		}
		if math.Float64bits(d) != math.Float64bits(back) {
			t.Fatalf("EMD not symmetric: %v vs %v", d, back)
		}
		self, err := emd(p, p)
		if err != nil {
			t.Fatalf("EMD rejected identical pair it previously accepted: %v", err)
		}
		if self != 0 {
			t.Fatalf("EMD(p, p) = %v; want 0", self)
		}
	})
}

func FuzzEMDCircular(f *testing.F) {
	fuzzEMD(f, EMDCircular)
}

func FuzzEMDLinear(f *testing.F) {
	fuzzEMD(f, EMDLinear)
}

// FuzzEMDCircularScratch pins the scratch variant to the allocating one:
// same inputs, bit-identical output, scratch contents never change the
// result.
func FuzzEMDCircularScratch(f *testing.F) {
	seedHistograms(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, q := decodeHistogramPair(data)
		want, wantErr := EMDCircular(p, q)
		scratch := make([]float64, 2*len(p))
		for i := range scratch {
			scratch[i] = math.NaN() // stale garbage must not leak through
		}
		got, gotErr := EMDCircularScratch(p, q, scratch)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error mismatch: %v vs %v", wantErr, gotErr)
		}
		if wantErr == nil && math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("scratch variant diverged: %v vs %v", want, got)
		}
	})
}

// FuzzEMDCircularAllRotations pins the kernel to EMDCircular on every
// rotation: the same inputs are accepted, and each accepted distance is
// finite, non-negative and bit-identical to EMDCircular(p, q_r).
func FuzzEMDCircularAllRotations(f *testing.F) {
	seedHistograms(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, q := decodeHistogramPair(data)
		got, err := EMDCircularAllRotations(p, q, nil, nil)
		if _, wantErr := EMDCircular(p, q); (err == nil) != (wantErr == nil) {
			t.Fatalf("error mismatch: kernel %v, EMDCircular %v", err, wantErr)
		}
		if err != nil {
			return
		}
		for r, d := range got {
			if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
				t.Fatalf("rotation %d: kernel %v; want finite non-negative", r, d)
			}
			// Rotating q reorders its mass sum, which can move a pair on
			// the edge of a validation bound across it; compare only what
			// EMDCircular accepts.
			want, err := EMDCircular(p, Rotate(q, r))
			if err == nil && math.Float64bits(d) != math.Float64bits(want) {
				t.Fatalf("rotation %d: kernel %v, EMDCircular %v", r, d, want)
			}
		}
	})
}
