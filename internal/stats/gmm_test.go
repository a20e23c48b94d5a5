package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"darkcrowd/internal/obs"
)

// sampleMixture draws n deterministic samples from the mixture on a
// 24-circle using the provided source.
func sampleMixture(rng *rand.Rand, m Mixture, n int) []float64 {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		// Pick component by weight.
		u := rng.Float64() * m.TotalWeight()
		var g Gaussian
		for _, c := range m {
			if u < c.Weight {
				g = c
				break
			}
			u -= c.Weight
		}
		if g.Sigma == 0 {
			g = m[len(m)-1]
		}
		x := math.Mod(rng.NormFloat64()*g.Sigma+g.Mean+240, 24)
		out = append(out, x)
	}
	return out
}

func TestFitMixtureEMSingleComponent(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	truth := Mixture{{Weight: 1, Mean: 13, Sigma: 2.5}}
	samples := sampleMixture(rng, truth, 2000)
	res, err := FitMixtureEM(samples, 1, EMConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Mixture[0]
	if d := math.Abs(CircularDiff(got.Mean, 13, 24)); d > 0.3 {
		t.Errorf("mean = %g, want ~13", got.Mean)
	}
	if math.Abs(got.Sigma-2.5) > 0.4 {
		t.Errorf("sigma = %g, want ~2.5", got.Sigma)
	}
	if math.Abs(got.Weight-1) > 1e-9 {
		t.Errorf("weight = %g, want 1", got.Weight)
	}
}

func TestFitMixtureEMAcrossSeam(t *testing.T) {
	t.Parallel()
	// A component centred at UTC-1 (bin 23 on a 0..23 axis) must be
	// recovered despite the circular seam.
	rng := rand.New(rand.NewSource(2))
	truth := Mixture{{Weight: 1, Mean: 23.5, Sigma: 2}}
	samples := sampleMixture(rng, truth, 2000)
	res, err := FitMixtureEM(samples, 1, EMConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Mixture[0]
	if d := math.Abs(CircularDiff(got.Mean, 23.5, 24)); d > 0.4 {
		t.Errorf("mean = %g, want ~23.5 (circular)", got.Mean)
	}
}

func TestSelectMixtureFindsTwoComponents(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	truth := Mixture{
		{Weight: 0.7, Mean: 7, Sigma: 2},
		{Weight: 0.3, Mean: 19, Sigma: 2},
	}
	samples := sampleMixture(rng, truth, 3000)
	res, err := SelectMixture(samples, 4, EMConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mixture) != 2 {
		t.Fatalf("selected %d components, want 2: %+v", len(res.Mixture), res.Mixture)
	}
	// Components are sorted by descending weight.
	if d := math.Abs(CircularDiff(res.Mixture[0].Mean, 7, 24)); d > 0.6 {
		t.Errorf("dominant mean = %g, want ~7", res.Mixture[0].Mean)
	}
	if d := math.Abs(CircularDiff(res.Mixture[1].Mean, 19, 24)); d > 0.8 {
		t.Errorf("secondary mean = %g, want ~19", res.Mixture[1].Mean)
	}
	if res.Mixture[0].Weight < res.Mixture[1].Weight {
		t.Error("mixture not sorted by weight")
	}
	if math.Abs(res.Mixture[0].Weight-0.7) > 0.08 {
		t.Errorf("dominant weight = %g, want ~0.7", res.Mixture[0].Weight)
	}
}

func TestSelectMixtureFindsThreeComponents(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(4))
	truth := Mixture{
		{Weight: 0.45, Mean: 4, Sigma: 1.8},
		{Weight: 0.35, Mean: 12, Sigma: 1.8},
		{Weight: 0.20, Mean: 20, Sigma: 1.8},
	}
	samples := sampleMixture(rng, truth, 4000)
	res, err := SelectMixture(samples, 5, EMConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mixture) != 3 {
		t.Fatalf("selected %d components, want 3: %+v", len(res.Mixture), res.Mixture)
	}
	wantMeans := []float64{4, 12, 20}
	for _, want := range wantMeans {
		found := false
		for _, g := range res.Mixture {
			if math.Abs(CircularDiff(g.Mean, want, 24)) < 1 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no component near %g in %+v", want, res.Mixture)
		}
	}
}

func TestSelectMixtureSingleRegionPrefersOne(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	truth := Mixture{{Weight: 1, Mean: 10, Sigma: 2.5}}
	samples := sampleMixture(rng, truth, 1500)
	res, err := SelectMixture(samples, 4, EMConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mixture) != 1 {
		t.Fatalf("selected %d components for single-region crowd, want 1: %+v",
			len(res.Mixture), res.Mixture)
	}
}

func TestFitMixtureEMErrors(t *testing.T) {
	t.Parallel()
	if _, err := FitMixtureEM([]float64{1, 2, 3}, 0, EMConfig{Period: 24}); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := FitMixtureEM([]float64{1}, 2, EMConfig{Period: 24}); err == nil {
		t.Error("more components than samples should fail")
	}
	if _, err := FitMixtureEM([]float64{1, 2}, 1, EMConfig{}); err == nil {
		t.Error("missing period should fail")
	}
	if _, err := SelectMixture([]float64{1, 2, 3}, 0, EMConfig{Period: 24}); err == nil {
		t.Error("maxK=0 should fail")
	}
	if _, err := SelectMixture(nil, 3, EMConfig{Period: 24}); err == nil {
		t.Error("empty samples should fail")
	}
}

func TestEMWeightsSumToOne(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(6))
	truth := Mixture{
		{Weight: 0.5, Mean: 3, Sigma: 2},
		{Weight: 0.5, Mean: 15, Sigma: 2},
	}
	samples := sampleMixture(rng, truth, 1000)
	for k := 1; k <= 3; k++ {
		res, err := FitMixtureEM(samples, k, EMConfig{Period: 24})
		var deg *FitDegradedError
		if errors.As(err, &deg) {
			// Overparameterized k may not converge; the recoverable fit must
			// still honor the weight invariant.
			res = deg.Result
		} else if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(res.Mixture.TotalWeight(), 1, 1e-6) {
			t.Errorf("k=%d: weights sum to %g", k, res.Mixture.TotalWeight())
		}
		if res.Iterations <= 0 {
			t.Errorf("k=%d: non-positive iteration count", k)
		}
	}
}

func TestEMLikelihoodImprovesWithBetterModel(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	truth := Mixture{
		{Weight: 0.5, Mean: 2, Sigma: 1.5},
		{Weight: 0.5, Mean: 14, Sigma: 1.5},
	}
	samples := sampleMixture(rng, truth, 1500)
	one, err := FitMixtureEM(samples, 1, EMConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	two, err := FitMixtureEM(samples, 2, EMConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	if two.LogLikelihood <= one.LogLikelihood {
		t.Errorf("k=2 log-likelihood %g should beat k=1 %g for bimodal data",
			two.LogLikelihood, one.LogLikelihood)
	}
	if two.BIC >= one.BIC {
		t.Errorf("k=2 BIC %g should beat k=1 BIC %g for bimodal data", two.BIC, one.BIC)
	}
}

func TestTidyMixtureMergesClose(t *testing.T) {
	t.Parallel()
	cfg := EMConfig{Period: 24}.withDefaults()
	m := Mixture{
		{Weight: 0.5, Mean: 10, Sigma: 2},
		{Weight: 0.4, Mean: 10.5, Sigma: 2},
		{Weight: 0.1, Mean: 20, Sigma: 2},
	}
	out := tidyMixture(m, cfg)
	if len(out) != 2 {
		t.Fatalf("merged mixture has %d components, want 2: %+v", len(out), out)
	}
	if !almostEqual(out.TotalWeight(), 1, 1e-9) {
		t.Errorf("weights sum to %g", out.TotalWeight())
	}
	if d := math.Abs(CircularDiff(out[0].Mean, 10.22, 24)); d > 0.1 {
		t.Errorf("merged mean = %g, want ~10.22", out[0].Mean)
	}
}

func TestTidyMixturePrunesLight(t *testing.T) {
	t.Parallel()
	cfg := EMConfig{Period: 24}.withDefaults()
	m := Mixture{
		{Weight: 0.97, Mean: 5, Sigma: 2},
		{Weight: 0.03, Mean: 18, Sigma: 2},
	}
	out := tidyMixture(m, cfg)
	if len(out) != 1 {
		t.Fatalf("pruned mixture has %d components, want 1", len(out))
	}
	if !almostEqual(out[0].Weight, 1, 1e-9) {
		t.Errorf("surviving weight = %g, want 1", out[0].Weight)
	}
}

// TestEMResultDescribesReturnedMixture is the contract the historical loop
// violated: the reported log-likelihood (and therefore BIC) must be the
// likelihood of the mixture actually returned, not of an earlier or later
// iterate. Checked across seeds, component counts, and clamp settings,
// including aggressive clamps that force non-monotone EM.
func TestEMResultDescribesReturnedMixture(t *testing.T) {
	t.Parallel()
	cfgs := []EMConfig{
		{Period: 24},
		{Period: 24, MinSigma: 1.8, MaxSigma: 3.2, Tol: 1e-12},
		{Period: 24, MinSigma: 3.0, MaxSigma: 3.2, Tol: 1e-12},
	}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		truth := Mixture{
			{Weight: 0.6, Mean: 5, Sigma: 0.8},
			{Weight: 0.4, Mean: 13, Sigma: 1.5},
		}
		samples := sampleMixture(rng, truth, 300)
		for _, cfg := range cfgs {
			for k := 1; k <= 3; k++ {
				res, err := FitMixtureEM(samples, k, cfg)
				var deg *FitDegradedError
				if errors.As(err, &deg) {
					// The LL/BIC contract holds for degraded fits too: the
					// reported score must describe the returned mixture.
					res = deg.Result
				} else if err != nil {
					t.Fatal(err)
				}
				recomputed := MixtureLogLikelihood(samples, res.Mixture, 24)
				if math.Abs(recomputed-res.LogLikelihood) > 1e-6*math.Abs(recomputed) {
					t.Errorf("seed=%d k=%d cfg=%+v: reported LL %.9f but returned mixture has LL %.9f",
						seed, k, cfg, res.LogLikelihood, recomputed)
				}
				if want := bicScore(k, len(samples), res.LogLikelihood); res.BIC != want {
					t.Errorf("seed=%d k=%d: BIC %.9f inconsistent with reported LL (want %.9f)",
						seed, k, res.BIC, want)
				}
				if res.Iterations <= 0 {
					t.Errorf("seed=%d k=%d: Iterations = %d", seed, k, res.Iterations)
				}
			}
		}
	}
}

// TestEMDecreasingLikelihoodKeepsBestIterate pins a configuration where
// sigma clamping makes an M-step *decrease* the likelihood (found by
// sweeping seeds; the truth mixture's sigma 0.4 sits far below MinSigma=3,
// so the M-step projection leaves the monotone regime). EM must detect the
// decrease, stop, and return the best iterate it evaluated — the
// regression was returning the worse post-decrease parameters with the
// stale pre-decrease likelihood attached.
func TestEMDecreasingLikelihoodKeepsBestIterate(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	truth := Mixture{
		{Weight: 0.6, Mean: 5, Sigma: 0.4},
		{Weight: 0.4, Mean: 9, Sigma: 0.4},
	}
	samples := sampleMixture(rng, truth, 200)
	cfg := EMConfig{Period: 24, MinSigma: 3.0, MaxSigma: 3.2, Tol: 1e-12, MaxIter: 100}

	// Replay the iteration sequence with the same deterministic init to
	// confirm the premise: the likelihood really does go down.
	full := cfg.withDefaults()
	mix := initComponents(samples, 2, full)
	tab := newEMTable(samples, 2, full.Period)
	var lls []float64
	decreased := false
	for iter := 0; iter < full.MaxIter; iter++ {
		ll := tab.eStep(mix, full.Period)
		lls = append(lls, ll)
		if len(lls) > 1 && ll < lls[len(lls)-2] {
			decreased = true
			break
		}
		tab.mStep(mix, full)
	}
	if !decreased {
		t.Fatal("premise broken: this configuration no longer produces an LL decrease; pick a new seed")
	}
	bestSeen := math.Inf(-1)
	for _, ll := range lls {
		if ll > bestSeen {
			bestSeen = ll
		}
	}

	res, err := FitMixtureEM(samples, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("EM hit an LL decrease but did not report Converged")
	}
	if res.Iterations != len(lls) {
		t.Errorf("Iterations = %d, want %d (stopped at the decrease)", res.Iterations, len(lls))
	}
	if math.Abs(res.LogLikelihood-bestSeen) > 1e-9*math.Abs(bestSeen) {
		t.Errorf("returned LL %.9f, want best evaluated iterate %.9f", res.LogLikelihood, bestSeen)
	}
	recomputed := MixtureLogLikelihood(samples, res.Mixture, 24)
	if math.Abs(recomputed-res.LogLikelihood) > 1e-6*math.Abs(recomputed) {
		t.Errorf("reported LL %.9f does not match returned mixture's LL %.9f", res.LogLikelihood, recomputed)
	}
}

// TestEMConvergedFlag: easy data converges well before MaxIter; a
// single-iteration budget cannot converge and must say so.
func TestEMConvergedFlag(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	samples := sampleMixture(rng, Mixture{{Weight: 1, Mean: 10, Sigma: 2.5}}, 800)
	res, err := FitMixtureEM(samples, 1, EMConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("unimodal fit did not converge in %d iterations", res.Iterations)
	}
	// A single-iteration budget cannot converge: the fit comes back as a
	// degraded-but-usable result attached to a typed error.
	capped, err := FitMixtureEM(samples, 2, EMConfig{Period: 24, MaxIter: 1})
	var deg *FitDegradedError
	if !errors.As(err, &deg) {
		t.Fatalf("MaxIter=1 run returned %v, want *FitDegradedError", err)
	}
	if capped.Converged {
		t.Error("MaxIter=1 run claims convergence")
	}
	if capped.Iterations != 1 {
		t.Errorf("MaxIter=1 run reports %d iterations", capped.Iterations)
	}
	if capped.Degraded == "" || deg.Result.Degraded != capped.Degraded {
		t.Errorf("degraded fit not marked: result %q, error carries %q", capped.Degraded, deg.Result.Degraded)
	}
	if !strings.Contains(deg.Reason, "max-iterations") {
		t.Errorf("degradation reason = %q", deg.Reason)
	}
	if len(deg.Result.Mixture) != 2 {
		t.Errorf("degraded error carries %d components, want the recoverable 2", len(deg.Result.Mixture))
	}
}

// TestSelectMixtureAbsorbsDegradedFits: non-converging per-k runs must not
// abort model selection — their best recoverable fits stay in the BIC race,
// and if the winner itself is degraded, SelectMixture returns it with a nil
// error and the Degraded field set.
func TestSelectMixtureAbsorbsDegradedFits(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(21))
	samples := sampleMixture(rng, Mixture{{Weight: 1, Mean: 8, Sigma: 2.5}}, 400)
	// MaxIter=1 starves every candidate k, so each FitMixtureEM call
	// returns a *FitDegradedError; selection must still produce a model.
	res, err := SelectMixture(samples, 3, EMConfig{Period: 24, MaxIter: 1})
	if err != nil {
		t.Fatalf("SelectMixture died on degraded candidates: %v", err)
	}
	if len(res.Mixture) == 0 {
		t.Fatal("no model selected")
	}
	if res.Degraded == "" || !strings.Contains(res.Degraded, "max-iterations") {
		t.Errorf("winner of an all-degraded race must be marked degraded, got %q", res.Degraded)
	}
	// Healthy data with a sane budget stays unmarked.
	healthy, err := SelectMixture(samples, 3, EMConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Degraded != "" {
		t.Errorf("healthy selection marked degraded: %q", healthy.Degraded)
	}
}

// TestInitComponentsFallbackAvoidsPickedPeaks: when k exceeds the number
// of well-separated histogram peaks, the even-spacing fallback must not
// drop a mean on top of an already-picked one. With 24 occupied integer
// bins and k=25, the historical fallback placed mean 24*24/25 = 23.04 —
// 0.04 zones from the picked peak at 23, seeding two near-duplicate
// components.
func TestInitComponentsFallbackAvoidsPickedPeaks(t *testing.T) {
	t.Parallel()
	cfg := EMConfig{Period: 24}.withDefaults()
	const k = 25
	samples := make([]float64, 30)
	for i := range samples {
		samples[i] = float64(i % 24)
	}
	mix := initComponents(samples, k, cfg)
	if len(mix) != k {
		t.Fatalf("initComponents returned %d components, want %d", len(mix), k)
	}
	minSep := cfg.Period / float64(2*k)
	for i := range mix {
		if math.Abs(mix[i].Weight-1.0/k) > 1e-12 {
			t.Errorf("component %d weight = %g, want 1/%d", i, mix[i].Weight, k)
		}
		for j := i + 1; j < len(mix); j++ {
			d := math.Abs(CircularDiff(mix[i].Mean, mix[j].Mean, cfg.Period))
			if d < minSep-1e-9 {
				t.Errorf("means %g and %g are %g apart, want >= %g (near-duplicate init)",
					mix[i].Mean, mix[j].Mean, d, minSep)
			}
		}
	}
}

// TestSelectMixtureBICDescribesTidiedMixture: SelectMixture prunes and
// merges the BIC winner before returning it, so the reported LL/BIC must
// be recomputed for the tidied model — the regression reported the raw
// k-component fit's score for a mixture with fewer components.
func TestSelectMixtureBICDescribesTidiedMixture(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(12))
	truth := Mixture{
		{Weight: 0.7, Mean: 7, Sigma: 2},
		{Weight: 0.3, Mean: 19, Sigma: 2},
	}
	samples := sampleMixture(rng, truth, 2000)
	res, err := SelectMixture(samples, 5, EMConfig{Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	wantLL := MixtureLogLikelihood(samples, res.Mixture, 24)
	if res.LogLikelihood != wantLL {
		t.Errorf("reported LL %.9f, want tidied mixture's LL %.9f", res.LogLikelihood, wantLL)
	}
	if want := bicScore(len(res.Mixture), len(samples), wantLL); res.BIC != want {
		t.Errorf("reported BIC %.9f, want %.9f for the %d-component tidied mixture",
			res.BIC, want, len(res.Mixture))
	}
}

// refEStep and refMStep are the per-sample EM steps the distinct-value
// table replaced: every density, normaliser, angle and circular distance
// is evaluated once per sample. They are the definition the table is
// checked against.
func refEStep(samples []float64, mix Mixture, resp [][]float64, period float64) float64 {
	k := len(mix)
	ll := 0.0
	for i, x := range samples {
		var total float64
		for j, g := range mix {
			p := g.Weight * g.WrappedPDF(x, period)
			resp[i][j] = p
			total += p
		}
		if total <= 0 {
			for j := range resp[i] {
				resp[i][j] = 1 / float64(k)
			}
			total = 1e-300
		} else {
			for j := range resp[i] {
				resp[i][j] /= total
			}
		}
		ll += math.Log(total)
	}
	return ll
}

func refMStep(samples []float64, mix Mixture, resp [][]float64, cfg EMConfig) {
	n := len(samples)
	for j := range mix {
		var rsum, sinSum, cosSum float64
		for i, x := range samples {
			r := resp[i][j]
			rsum += r
			theta := 2 * math.Pi * x / cfg.Period
			sinSum += r * math.Sin(theta)
			cosSum += r * math.Cos(theta)
		}
		if rsum <= 0 {
			continue
		}
		mu := math.Atan2(sinSum, cosSum) * cfg.Period / (2 * math.Pi)
		mu = math.Mod(mu+cfg.Period, cfg.Period)
		var varSum float64
		for i, x := range samples {
			d := CircularDiff(x, mu, cfg.Period)
			varSum += resp[i][j] * d * d
		}
		sigma := math.Sqrt(varSum / rsum)
		sigma = math.Min(math.Max(sigma, cfg.MinSigma), cfg.MaxSigma)
		mix[j] = Gaussian{Weight: rsum / float64(n), Mean: mu, Sigma: sigma}
	}
}

// refFitMixtureEM is FitMixtureEM's loop over refEStep/refMStep.
func refFitMixtureEM(samples []float64, k int, cfg EMConfig) EMResult {
	cfg = cfg.withDefaults()
	mix := initComponents(samples, k, cfg)
	resp := make([][]float64, len(samples))
	for i := range resp {
		resp[i] = make([]float64, k)
	}
	best := make(Mixture, k)
	bestLL, prevLL := math.Inf(-1), math.Inf(-1)
	converged := false
	iters := 0
	for iter := 0; iter < cfg.MaxIter; iter++ {
		iters = iter + 1
		ll := refEStep(samples, mix, resp, cfg.Period)
		if ll >= bestLL {
			bestLL = ll
			copy(best, mix)
		}
		if iter > 0 && (ll-prevLL < 0 || ll-prevLL < cfg.Tol) {
			converged = true
			break
		}
		prevLL = ll
		refMStep(samples, mix, resp, cfg)
	}
	sortMixture(best)
	res := EMResult{Mixture: best, LogLikelihood: bestLL, Iterations: iters,
		BIC: bicScore(k, len(samples), bestLL), Converged: converged}
	res.Degraded = degradation(res)
	return res
}

// refSelectMixture is SelectMixture's BIC race over refFitMixtureEM.
func refSelectMixture(samples []float64, maxK int, cfg EMConfig) EMResult {
	cfg = cfg.withDefaults()
	best := refFitMixtureEM(samples, 1, cfg)
	for k := 2; k <= maxK; k++ {
		if res := refFitMixtureEM(samples, k, cfg); res.BIC < best.BIC {
			best = res
		}
	}
	best.Mixture = tidyMixture(best.Mixture, cfg)
	best.LogLikelihood = MixtureLogLikelihood(samples, best.Mixture, cfg.Period)
	best.BIC = bicScore(len(best.Mixture), len(samples), best.LogLikelihood)
	return best
}

// sameBits reports the first EMResult field on which got and want differ
// in any bit, or "" when they are identical.
func sameBits(got, want EMResult) string {
	eq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if len(got.Mixture) != len(want.Mixture) {
		return fmt.Sprintf("k = %d, want %d", len(got.Mixture), len(want.Mixture))
	}
	for j, g := range got.Mixture {
		w := want.Mixture[j]
		if !eq(g.Weight, w.Weight) || !eq(g.Mean, w.Mean) || !eq(g.Sigma, w.Sigma) {
			return fmt.Sprintf("component %d = %+v, want %+v", j, g, w)
		}
	}
	switch {
	case !eq(got.LogLikelihood, want.LogLikelihood):
		return fmt.Sprintf("LogLikelihood = %v, want %v", got.LogLikelihood, want.LogLikelihood)
	case !eq(got.BIC, want.BIC):
		return fmt.Sprintf("BIC = %v, want %v", got.BIC, want.BIC)
	case got.Iterations != want.Iterations:
		return fmt.Sprintf("Iterations = %d, want %d", got.Iterations, want.Iterations)
	case got.Converged != want.Converged:
		return fmt.Sprintf("Converged = %v, want %v", got.Converged, want.Converged)
	case got.Degraded != want.Degraded:
		return fmt.Sprintf("Degraded = %q, want %q", got.Degraded, want.Degraded)
	}
	return ""
}

// TestEMTableMatchesPerSampleEM: tabulating EM per distinct value must
// give the per-sample fit bit for bit — for FitMixtureEM at every k and
// for SelectMixture — on integer placement zones, non-integer draws,
// all-equal samples, a mix of +0 and -0, and all-distinct samples.
func TestEMTableMatchesPerSampleEM(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(19))
	peaks := Mixture{
		{Weight: 0.45, Mean: 1, Sigma: 1.5},
		{Weight: 0.25, Mean: 8, Sigma: 1.2},
		{Weight: 0.2, Mean: 14, Sigma: 2},
		{Weight: 0.1, Mean: 19, Sigma: 1.5},
	}
	zones := sampleMixture(rng, peaks, 1500)
	for i, x := range zones {
		zones[i] = math.Mod(math.Round(x), 24)
	}
	draws := sampleMixture(rng, peaks[:2], 400)
	equal := make([]float64, 60)
	for i := range equal {
		equal[i] = 7
	}
	negZero := math.Copysign(0, -1)
	zeros := make([]float64, 0, 120)
	for i := 0; i < 120; i++ {
		switch i % 4 {
		case 0:
			zeros = append(zeros, 0)
		case 1:
			zeros = append(zeros, negZero)
		default:
			zeros = append(zeros, float64(i%5))
		}
	}
	distinct := make([]float64, 200)
	for i := range distinct {
		distinct[i] = math.Mod(float64(i)*0.37+rng.Float64()*1e-3, 24)
	}
	inputs := []struct {
		name    string
		samples []float64
	}{
		{"integer-zones", zones},
		{"non-integer", draws},
		{"all-equal", equal},
		{"signed-zeros", zeros},
		{"all-distinct", distinct},
	}
	cfgs := []EMConfig{
		{Period: 24},
		{Period: 24, MinSigma: 3.0, MaxSigma: 3.2, Tol: 1e-12},
	}
	for _, in := range inputs {
		for ci, cfg := range cfgs {
			for k := 1; k <= 4; k++ {
				got, err := FitMixtureEM(in.samples, k, cfg)
				var deg *FitDegradedError
				if err != nil && !errors.As(err, &deg) {
					t.Fatal(err)
				}
				if diff := sameBits(got, refFitMixtureEM(in.samples, k, cfg)); diff != "" {
					t.Errorf("%s cfg %d FitMixtureEM k=%d: %s", in.name, ci, k, diff)
				}
			}
			got, err := SelectMixture(in.samples, 4, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameBits(got, refSelectMixture(in.samples, 4, cfg)); diff != "" {
				t.Errorf("%s cfg %d SelectMixture: %s", in.name, ci, diff)
			}
		}
	}
}

// BenchmarkEMSelection measures EM with BIC model selection on 5,600
// integer placement zones in four peaks, the shape of the scale-4 Table I
// crowd: the Americas around zone index 5 (UTC-7), Brazil at 9 (UTC-3),
// Europe at 13 (UTC+1) and Japan at 21 (UTC+9). Users interleave across
// peaks as they do in sorted-user order.
func BenchmarkEMSelection(b *testing.B) {
	peaks := []int{5, 9, 13, 21}
	weights := []int{4, 1, 4, 1} // users per round, per peak
	spread := []int{0, 1, -1, 0, 2, 0, -1, 1, -2, 0, 1, -1, 0}
	samples := make([]float64, 0, 5600)
	for i := 0; len(samples) < cap(samples); i++ {
		for j, zone := range peaks {
			for w := 0; w < weights[j] && len(samples) < cap(samples); w++ {
				z := (zone + spread[(i+w+3*j)%len(spread)] + 24) % 24
				samples = append(samples, float64(z))
			}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SelectMixture(samples, 4, EMConfig{Period: 24}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSelectMixtureSameAtAnyWorkerCount: the per-k fits are handed out
// largest k first through a shared counter, so which worker runs which k
// depends on scheduling; the selected model must not. Every k is fitted
// and reported exactly once.
func TestSelectMixtureSameAtAnyWorkerCount(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	samples := sampleMixture(rng, Mixture{
		{Weight: 0.6, Mean: 2, Sigma: 2.5},
		{Weight: 0.4, Mean: 14, Sigma: 2.5},
	}, 600)
	const maxK = 6
	var want EMResult
	for i, workers := range []int{1, 2, 7} {
		root := obs.StartSpan("test")
		res, err := SelectMixture(samples, maxK, EMConfig{Period: 24, Parallelism: workers, Obs: &obs.Observer{Span: root}})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if i == 0 {
			want = res
		} else if !reflect.DeepEqual(res, want) {
			t.Fatalf("workers %d: %+v, want %+v", workers, res, want)
		}
		span := root.Children()[0]
		seen := make([]int, maxK)
		for _, sh := range span.Shards() {
			for k := sh.Start; k < sh.End; k++ {
				seen[k]++
			}
		}
		for k, n := range seen {
			if n != 1 {
				t.Fatalf("workers %d: k=%d fitted %d times, want 1", workers, k+1, n)
			}
		}
	}
}

// TestSelectMixtureLowestFailingKWins: when k=2 and k=3 both fail, the
// k=2 error is returned at every worker count, even though k=3 is handed
// out first and fails first here.
func TestSelectMixtureLowestFailingKWins(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(9))
	samples := sampleMixture(rng, Mixture{{Weight: 1, Mean: 8, Sigma: 2.5}}, 200)
	errK2, errK3 := errors.New("k2 failed"), errors.New("k3 failed")
	fit := func(samples []float64, k int, cfg EMConfig) (EMResult, error) {
		switch k {
		case 2:
			time.Sleep(5 * time.Millisecond)
			return EMResult{}, errK2
		case 3:
			return EMResult{}, errK3
		}
		return FitMixtureEM(samples, k, cfg)
	}
	for _, workers := range []int{1, 2, 7} {
		_, err := selectMixture(samples, 4, EMConfig{Period: 24, Parallelism: workers}, fit)
		if !errors.Is(err, errK2) || !strings.Contains(err.Error(), "k=2") {
			t.Fatalf("workers %d: err = %v, want the k=2 error", workers, err)
		}
	}
}
