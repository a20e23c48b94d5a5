package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"darkcrowd/internal/obs"
	"darkcrowd/internal/par"
)

// Expectation-Maximization for one-dimensional Gaussian mixtures on a
// circle. The paper (§IV-B) fits a Gaussian Mixture Model to the placement
// histogram of a crowd because the number of regions the crowd comes from
// is unknown a priori; EM estimates the maximum-likelihood parameters for a
// fixed number of components, and this package selects the number of
// components with the Bayesian Information Criterion.

// EMConfig parameterizes mixture estimation.
type EMConfig struct {
	// Period is the circumference of the circular domain
	// (24 for time zones). Required.
	Period float64
	// InitSigma is the initial standard deviation of every component. The
	// paper initializes EM with the sigma ~ 2.5 observed on single-region
	// placements. Defaults to 2.5.
	InitSigma float64
	// MaxIter bounds EM iterations per run. Defaults to 200.
	MaxIter int
	// Tol is the log-likelihood convergence threshold. Defaults to 1e-7.
	Tol float64
	// MinSigma and MaxSigma clamp component widths to keep the model in
	// the wrapped-Gaussian regime. MinSigma defaults to 1.3: the paper's
	// single-region placements spread with sigma ~2.5, and DST smears
	// every DST-observing crowd across two adjacent zones, so narrower
	// components are always overfits of single histogram bins. MaxSigma
	// defaults to 6.
	MinSigma, MaxSigma float64
	// MinWeight prunes components that capture less than this share of
	// the crowd after convergence. Defaults to 0.04.
	MinWeight float64
	// MergeRadius merges converged components whose means are closer than
	// this many zones: DST spreads one region across two adjacent zones,
	// so sub-1.6-zone splits are artefacts, not separate regions.
	// Defaults to 1.6.
	MergeRadius float64
	// Obs, when non-nil, receives the EM diagnostics (per-k iteration
	// counts, convergence flags, BIC scores, the selected k and the final
	// log-likelihood). Observation only: the fitted model is identical
	// with or without it.
	Obs *obs.Observer
	// Parallelism is the number of workers SelectMixture uses to run the
	// per-k EM fits concurrently: 0 uses every core (GOMAXPROCS), 1 forces
	// the sequential path. Each fit is deterministic and the BIC winner is
	// chosen by scanning k in order, so the selected model is identical
	// for every setting.
	Parallelism int
}

func (c EMConfig) withDefaults() EMConfig {
	if c.InitSigma == 0 {
		c.InitSigma = 2.5
	}
	if c.MaxIter == 0 {
		c.MaxIter = 200
	}
	if c.Tol == 0 {
		c.Tol = 1e-7
	}
	if c.MinSigma == 0 {
		c.MinSigma = 1.3
	}
	if c.MaxSigma == 0 {
		c.MaxSigma = 6
	}
	if c.MinWeight == 0 {
		c.MinWeight = 0.04
	}
	if c.MergeRadius == 0 {
		c.MergeRadius = 1.6
	}
	return c
}

// EMResult is the outcome of one EM run. LogLikelihood and BIC always
// describe Mixture — the model actually returned — not an intermediate
// iterate.
type EMResult struct {
	Mixture       Mixture
	LogLikelihood float64
	Iterations    int
	BIC           float64
	// Converged reports whether EM stopped on its own (log-likelihood
	// improvement below Tol, or a clamping-induced decrease) rather than
	// by hitting MaxIter.
	Converged bool
	// Degraded is empty for a healthy fit; otherwise it names why the fit
	// is only best-effort (non-convergence, a degenerate component). A
	// degraded result is still the best recoverable model — callers decide
	// whether to serve it with a warning or to fail.
	Degraded string `json:"Degraded,omitempty"`
}

// FitDegradedError is the typed error for an EM run that finished in a
// degraded state — it hit MaxIter without converging, or produced a
// degenerate component. The best recoverable mixture rides along in
// Result, so a long-running pipeline can report a degraded crowd estimate
// instead of dying: the fit is usable, just not trustworthy to full
// precision.
type FitDegradedError struct {
	// Result is the best recoverable fit; Result.Degraded == Reason.
	Result EMResult
	// Reason says what degraded ("max-iterations: ...",
	// "degenerate-component: ...").
	Reason string
}

// Error implements the error interface.
func (e *FitDegradedError) Error() string {
	return fmt.Sprintf("stats: degraded EM fit (k=%d): %s", len(e.Result.Mixture), e.Reason)
}

// degradation inspects a finished EM run and returns the degradation
// reason, or "" for a healthy fit. A component with a non-finite or
// non-positive parameter is degenerate — EM collapsed it — and takes
// precedence over plain non-convergence.
func degradation(res EMResult) string {
	for i, g := range res.Mixture {
		finite := !math.IsNaN(g.Weight) && !math.IsInf(g.Weight, 0) &&
			!math.IsNaN(g.Mean) && !math.IsInf(g.Mean, 0) &&
			!math.IsNaN(g.Sigma) && !math.IsInf(g.Sigma, 0)
		if !finite || g.Sigma <= 0 || g.Weight < 0 {
			return fmt.Sprintf("degenerate-component: component %d collapsed (weight %g, mean %g, sigma %g)",
				i, g.Weight, g.Mean, g.Sigma)
		}
	}
	if !res.Converged {
		return fmt.Sprintf("max-iterations: no convergence after %d iterations", res.Iterations)
	}
	return ""
}

// FitMixtureEM runs EM with exactly k components on the samples (positions
// on the circle, e.g. per-user placement zones as indices 0..23). It is
// one EMTable.FitMixture over the samples' table.
//
// Invalid inputs (bad k, bad Period, too few samples) fail with an
// ordinary error and no result. A run that finishes in a degraded state —
// MaxIter exhausted without convergence, or a collapsed component —
// returns the best recoverable EMResult together with a *FitDegradedError
// wrapping that same result, so callers choose between failing hard and
// serving the fit with a warning.
func FitMixtureEM(samples []float64, k int, cfg EMConfig) (EMResult, error) {
	return NewEMTable(samples, cfg.Period).FitMixture(k, cfg)
}

// EMTable is the distinct-value view of one EM input. Placement samples
// are zone indices, so a crowd of thousands of users carries at most 24
// distinct values: every transcendental function EM needs (the wrapped
// density, its log-normaliser, the angle's sine and cosine, the circular
// distance to a component mean) is evaluated once per distinct value, its
// slot, and read back per sample. Every sum over samples still runs over
// the samples in their original order, adding the same terms in the same
// sequence, so a fit is bit-identical to evaluating per sample. A table
// is read-only once built: SelectMixture runs every k on one table, and
// bootstrap replicates share one table's slots.
type EMTable struct {
	period   float64
	idx      []int32   // idx[i]: slot of sample i
	vals     []float64 // distinct samples by bit pattern, first-seen order
	sin, cos []float64 // per slot: sin/cos of 2π·x/period
	count    []int     // per slot: how many samples hold it
}

// NewEMTable dedupes samples, keyed on math.Float64bits so +0 and -0 (and
// distinct NaN payloads) keep separate slots, and tabulates each slot's
// angle on the circle of the given period.
func NewEMTable(samples []float64, period float64) *EMTable {
	t := &EMTable{period: period, idx: make([]int32, len(samples))}
	slot := make(map[uint64]int32)
	for i, x := range samples {
		b := math.Float64bits(x)
		s, ok := slot[b]
		if !ok {
			s = int32(len(t.vals))
			slot[b] = s
			t.vals = append(t.vals, x)
			t.count = append(t.count, 0)
		}
		t.idx[i] = s
		t.count[s]++
	}
	m := len(t.vals)
	t.sin = make([]float64, m)
	t.cos = make([]float64, m)
	for s, x := range t.vals {
		theta := 2 * math.Pi * x / period
		t.sin[s] = math.Sin(theta)
		t.cos[s] = math.Cos(theta)
	}
	return t
}

// Len returns the number of samples.
func (t *EMTable) Len() int { return len(t.idx) }

// Slot returns the slot of sample i, for Resample.
func (t *EMTable) Slot(i int) int32 { return t.idx[i] }

// Resample returns a table over t's distinct values whose i-th sample is
// the value in slots[i], each a Slot of t. It shares t's slots and adopts
// slots as its sample order, so the caller must not change slots while
// the returned table is in use. Slot numbering never reaches a sum, so a
// fit on the result keeps every bit of a fit on the resampled values.
func (t *EMTable) Resample(slots []int32) *EMTable {
	r := *t
	r.idx = slots
	r.count = make([]int, len(t.vals))
	for _, s := range slots {
		r.count[s]++
	}
	return &r
}

// FitMixture runs EM with exactly k components on the table's samples;
// cfg.Period must be the table's period. Errors as FitMixtureEM.
func (t *EMTable) FitMixture(k int, cfg EMConfig) (EMResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Period <= 0 {
		return EMResult{}, errors.New("stats: EMConfig.Period must be positive")
	}
	if cfg.Period != t.period {
		return EMResult{}, fmt.Errorf("stats: EMConfig.Period %g is not the table's period %g", cfg.Period, t.period)
	}
	if k <= 0 {
		return EMResult{}, fmt.Errorf("stats: component count must be positive, got %d", k)
	}
	n := t.Len()
	if n < k {
		return EMResult{}, fmt.Errorf("stats: %d samples cannot support %d components", n, k)
	}

	mix := initComponents(t.histogram(), k, cfg)
	f := newEMFit(t, k)

	// The loop is structured E-then-M with the stopping test *between*
	// them, so the log-likelihood used for the stopping decision — and
	// ultimately reported — is always the one of the parameters it was
	// evaluated on. (The historical bug: the loop ran E,M,test and then
	// reported the pre-M-step likelihood for the post-M-step mixture.)
	// The best-evaluated iterate is snapshotted because MinSigma/MaxSigma
	// clamping can make an M-step *decrease* the likelihood; on such a
	// decrease EM stops and the better earlier iterate is returned.
	best := make(Mixture, k)
	bestLL := math.Inf(-1)
	prevLL := math.Inf(-1)
	converged := false
	iters := 0
	for iter := 0; iter < cfg.MaxIter; iter++ {
		iters = iter + 1
		// E-step: responsibilities and log-likelihood of the current mix.
		ll := f.eStep(mix)
		if ll >= bestLL {
			bestLL = ll
			copy(best, mix)
		}
		if iter > 0 {
			delta := ll - prevLL
			if delta < 0 {
				// Clamping pushed the likelihood down: EM has left the
				// monotone regime, further iterations cannot be trusted to
				// improve. Stop and keep the best iterate seen.
				converged = true
				break
			}
			if delta < cfg.Tol {
				converged = true
				break
			}
		}
		prevLL = ll

		// M-step: re-estimate parameters from the responsibilities.
		f.mStep(mix, cfg)
	}

	bic := bicScore(k, n, bestLL)
	sortMixture(best)
	res := EMResult{Mixture: best, LogLikelihood: bestLL, Iterations: iters, BIC: bic, Converged: converged}
	if reason := degradation(res); reason != "" {
		res.Degraded = reason
		// The fit is degraded but not worthless: hand the best recoverable
		// mixture back alongside the typed error so callers can serve a
		// degraded result instead of dying mid-pipeline.
		return res, &FitDegradedError{Result: res, Reason: reason}
	}
	return res, nil
}

// emBlock is the column width of one pass over the samples: each pass
// reads one emBlock-wide row per sample and adds each column into its own
// local accumulator, so the sums advance as emBlock independent chains.
const emBlock = 8

// emColumns is a slots × columns table laid out in blocks of emBlock
// columns: column c of slot s sits at ((c/emBlock)·slots + s)·emBlock +
// c%emBlock, so one pass reads one contiguous block. Padding columns stay
// zero and their sums are never read.
type emColumns struct {
	cells []float64
	sums  []float64 // per column: the sum over the samples, in sample order
	slots int
}

func newEMColumns(slots, cols int) emColumns {
	blocks := (cols + emBlock - 1) / emBlock
	return emColumns{
		cells: make([]float64, blocks*slots*emBlock),
		sums:  make([]float64, blocks*emBlock),
		slots: slots,
	}
}

// cell returns column col of slot s.
func (c *emColumns) cell(col, s int) *float64 {
	return &c.cells[((col/emBlock)*c.slots+s)*emBlock+col%emBlock]
}

// sum adds every column over the samples idx, in sample order, one pass
// per column block.
func (c *emColumns) sum(idx []int32) {
	stride := c.slots * emBlock
	for b := 0; b*emBlock < len(c.sums); b++ {
		block := c.cells[b*stride : (b+1)*stride]
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		// The exit test sits after the adds, so only the adds read each
		// accumulator and the compiler folds every load into its add:
		// the eight chains stay in registers. idx is never empty here.
		for i := 0; ; {
			o := int(idx[i]) * emBlock
			r := (*[emBlock]float64)(block[o : o+emBlock])
			a0 += r[0]
			a1 += r[1]
			a2 += r[2]
			a3 += r[3]
			a4 += r[4]
			a5 += r[5]
			a6 += r[6]
			a7 += r[7]
			if i++; i == len(idx) {
				break
			}
		}
		*(*[emBlock]float64)(c.sums[b*emBlock:]) = [emBlock]float64{a0, a1, a2, a3, a4, a5, a6, a7}
	}
}

// emFit is the working state of one k-component fit over a shared table.
// The E-step fills, per slot, column 0 with log(total) and columns
// 1+3j, 2+3j and 3+3j with component j's responsibility r_j, r_j·sin and
// r_j·cos; the M-step fills column j of vars with r_j·d_j² for the
// circular distance d_j to the new mean. Products are rounded explicitly
// (float64(...)), so no architecture fuses them into the sums'
// additions.
type emFit struct {
	t    *EMTable
	e    emColumns // 3k+1 columns: ll, then r, r·sin, r·cos per component
	vars emColumns // k columns: r·d²
	p    []float64 // per component: the weighted density at one slot
	mu   []float64 // per component: the M-step mean
}

func newEMFit(t *EMTable, k int) *emFit {
	m := len(t.vals)
	return &emFit{
		t:    t,
		e:    newEMColumns(m, 3*k+1),
		vars: newEMColumns(m, k),
		p:    make([]float64, k),
		mu:   make([]float64, k),
	}
}

// eStep fills the E-step columns with the posterior of each component
// for each slot, sums them over the samples and returns the samples'
// log-likelihood under mix.
func (f *emFit) eStep(mix Mixture) float64 {
	t, k := f.t, len(mix)
	for s, x := range t.vals {
		var total float64
		for j, g := range mix {
			p := float64(g.Weight * g.WrappedPDF(x, t.period))
			f.p[j] = p
			total += p
		}
		if total <= 0 {
			// Degenerate point: spread responsibility uniformly.
			for j := range f.p {
				f.p[j] = 1 / float64(k)
			}
			total = 1e-300
		} else {
			for j := range f.p {
				f.p[j] /= total
			}
		}
		*f.e.cell(0, s) = math.Log(total)
		for j, r := range f.p {
			*f.e.cell(1+3*j, s) = r
			*f.e.cell(2+3*j, s) = float64(r * t.sin[s])
			*f.e.cell(3+3*j, s) = float64(r * t.cos[s])
		}
	}
	f.e.sum(t.idx)
	return f.e.sums[0]
}

// mStep re-estimates mix in place from the E-step sums, clamping
// component widths to [MinSigma, MaxSigma]. A component whose
// responsibilities sum to zero or less keeps its parameters.
func (f *emFit) mStep(mix Mixture, cfg EMConfig) {
	t, sums := f.t, f.e.sums
	live := func(j int) bool { return sums[1+3*j] > 0 }
	for j := range mix {
		if live(j) {
			mu := math.Atan2(sums[2+3*j], sums[3+3*j]) * cfg.Period / (2 * math.Pi)
			f.mu[j] = math.Mod(mu+cfg.Period, cfg.Period)
		}
	}
	for s, x := range t.vals {
		for j := range mix {
			if live(j) {
				d := CircularDiff(x, f.mu[j], cfg.Period)
				*f.vars.cell(j, s) = float64(float64(*f.e.cell(1+3*j, s)*d) * d)
			}
		}
	}
	f.vars.sum(t.idx)
	n := float64(t.Len())
	for j := range mix {
		if live(j) {
			rsum := sums[1+3*j]
			sigma := math.Sqrt(f.vars.sums[j] / rsum)
			sigma = math.Min(math.Max(sigma, cfg.MinSigma), cfg.MaxSigma)
			mix[j] = Gaussian{Weight: rsum / n, Mean: f.mu[j], Sigma: sigma}
		}
	}
}

// logLikelihood returns the total log-likelihood of the table's samples
// under mix: the mixture is evaluated once per slot and the logs are
// summed in sample order.
func (t *EMTable) logLikelihood(mix Mixture) float64 {
	logs := make([]float64, len(t.vals))
	for s, x := range t.vals {
		var total float64
		for _, g := range mix {
			total += float64(g.Weight * g.WrappedPDF(x, t.period))
		}
		if total <= 0 {
			total = 1e-300
		}
		logs[s] = math.Log(total)
	}
	ll := 0.0
	for _, s := range t.idx {
		ll += logs[s]
	}
	return ll
}

// MixtureLogLikelihood returns the total log-likelihood of the samples
// under the mixture on the circular domain — the quantity EM maximizes
// and BIC penalizes. Degenerate zero-density points contribute log(1e-300)
// exactly as the EM loop counts them.
func MixtureLogLikelihood(samples []float64, mix Mixture, period float64) float64 {
	return NewEMTable(samples, period).logLikelihood(mix)
}

// bicScore is the Bayesian Information Criterion for a k-component
// circular mixture on n samples: each component carries a mean and a
// sigma, plus k-1 free weights.
func bicScore(k, n int, ll float64) float64 {
	params := float64(3*k - 1)
	return params*math.Log(float64(n)) - 2*ll
}

// SelectMixture fits mixtures with 1..maxK components and returns the one
// minimizing BIC, after pruning components lighter than cfg.MinWeight and
// merging components closer than one zone. This reproduces the paper's
// uncovering of "the different number of regions per crowd given by the
// number of different Gaussian curves" (§IV-B).
//
// The returned LogLikelihood and BIC describe the *tidied* mixture — the
// model the caller actually receives — recomputed after pruning and
// merging. (Model selection itself compares the raw per-k fits: tidying
// changes the component count, so comparing tidied scores against raw
// ones would bias the search.)
//
// The per-k EM runs are independent, so they execute on cfg.Parallelism
// workers; every run is deterministic and the winner is picked by scanning
// the results in k order (ties go to the smaller model), so the outcome
// matches the sequential loop exactly. If some k fail outright, the error
// of the smallest failing k is returned, at any worker count.
//
// Degraded per-k fits (see FitMixtureEM) do not abort selection: their best
// recoverable models stay in the BIC race alongside the healthy candidates.
// If the winner itself is degraded, SelectMixture still returns it with a
// nil error and the Degraded field set — the model is the best available
// estimate, and the caller decides whether that warrants a warning.
func SelectMixture(samples []float64, maxK int, cfg EMConfig) (EMResult, error) {
	return selectMixture(samples, maxK, cfg, (*EMTable).FitMixture)
}

// selectMixture is SelectMixture over a given per-k fit, so tests can make
// chosen k fail. The samples are tabulated once, and every per-k fit and
// the tidied model's score read that one table.
func selectMixture(samples []float64, maxK int, cfg EMConfig, fit func(*EMTable, int, EMConfig) (EMResult, error)) (EMResult, error) {
	cfg = cfg.withDefaults()
	if maxK <= 0 {
		return EMResult{}, fmt.Errorf("stats: maxK must be positive, got %d", maxK)
	}
	kMax := maxK
	if kMax > len(samples) {
		kMax = len(samples)
	}
	if kMax < 1 {
		return EMResult{}, ErrEmptyInput
	}
	o := cfg.Obs.Stage("em-select")
	defer o.End()
	tab := NewEMTable(samples, cfg.Period)
	workers := par.Workers(cfg.Parallelism, kMax)
	o.SetWorkers(workers)
	sp := o.SpanRef()
	// An EM iteration costs O(k·n), so the fits grow with k. Workers take
	// k from kMax down through a shared counter: the slowest fits start
	// first and whichever worker frees up takes the next smaller k, where
	// contiguous k ranges left one worker with all the large fits. Results
	// and errors are stored by k, so nothing depends on who ran what.
	results := make([]EMResult, kMax)
	errs := make([]error, kMax)
	var next atomic.Int64
	next.Store(int64(kMax))
	err := par.Ranges(nil, workers, workers, func(w, _ int) error {
		for i := int(next.Add(-1)); i >= 0; i = int(next.Add(-1)) {
			began := time.Now()
			res, err := fit(tab, i+1, cfg)
			var deg *FitDegradedError
			if errors.As(err, &deg) {
				// A degraded fit still carries the best recoverable model.
				// It stays in the BIC race: aborting model selection because
				// one candidate k failed to converge would discard every
				// healthy candidate along with it.
				res, err = deg.Result, nil
			}
			results[i], errs[i] = res, err
			sp.ShardDone(w, i, i+1, time.Since(began)) // nil-safe
		}
		return nil
	})
	if err != nil {
		return EMResult{}, err
	}
	for i, err := range errs {
		if err != nil {
			return EMResult{}, fmt.Errorf("stats: EM with k=%d: %w", i+1, err)
		}
	}
	best := results[0]
	for _, res := range results[1:] {
		if res.BIC < best.BIC {
			best = res
		}
	}
	rawK := len(best.Mixture)
	best.Mixture = tidyMixture(best.Mixture, cfg)
	// Pruning/merging changed the model, so its reported score must be
	// recomputed; the BIC the caller sees always describes best.Mixture.
	best.LogLikelihood = tab.logLikelihood(best.Mixture)
	best.BIC = bicScore(len(best.Mixture), len(samples), best.LogLikelihood)
	if o.Enabled() {
		for i, res := range results {
			prefix := fmt.Sprintf("em.k%d.", i+1)
			o.Gauge(prefix + "iterations").Set(int64(res.Iterations))
			conv := int64(0)
			if res.Converged {
				conv = 1
			}
			o.Gauge(prefix + "converged").Set(conv)
			o.FloatGauge(prefix + "bic").Set(res.BIC)
			o.FloatGauge(prefix + "log_likelihood").Set(res.LogLikelihood)
		}
		o.Gauge("em.selected_raw_k").Set(int64(rawK))
		o.Gauge("em.selected_k").Set(int64(len(best.Mixture)))
		o.Gauge("em.selected_iterations").Set(int64(best.Iterations))
		conv := int64(0)
		if best.Converged {
			conv = 1
		}
		o.Gauge("em.selected_converged").Set(conv)
		degradedK := int64(0)
		for _, res := range results {
			if res.Degraded != "" {
				degradedK++
			}
		}
		o.Gauge("em.degraded_fits").Set(degradedK)
		selDeg := int64(0)
		if best.Degraded != "" {
			selDeg = 1
		}
		o.Gauge("em.selected_degraded").Set(selDeg)
		o.FloatGauge("em.final_log_likelihood").Set(best.LogLikelihood)
		o.FloatGauge("em.final_bic").Set(best.BIC)
		o.Eventf("em-select", "model selected",
			"raw_k", rawK, "k", len(best.Mixture), "iterations", best.Iterations, "converged", best.Converged)
		if best.Degraded != "" {
			o.Eventf("em-select", "selected model is degraded", "reason", best.Degraded)
		}
	}
	return best, nil
}

// histogram counts the table's samples in round(Period) unit bins, the
// input of initComponents. Slot counts are integers, so the histogram is
// exact in any order.
func (t *EMTable) histogram() []float64 {
	bins := int(math.Round(t.period))
	if bins < 1 {
		bins = 1
	}
	hist := make([]float64, bins)
	for s, x := range t.vals {
		idx := int(math.Mod(math.Floor(x+0.5), float64(bins)))
		if idx < 0 {
			idx += bins
		}
		hist[idx] += float64(t.count[s])
	}
	return hist
}

// initComponents places the initial means on the k strongest well-separated
// peaks of the sample histogram, falling back to even spacing. The
// initialization is deterministic, so every fit is reproducible.
func initComponents(hist []float64, k int, cfg EMConfig) Mixture {
	bins := len(hist)
	type peak struct {
		bin   int
		count float64
	}
	peaks := make([]peak, 0, bins)
	for i, c := range hist {
		peaks = append(peaks, peak{bin: i, count: c})
	}
	sort.Slice(peaks, func(i, j int) bool {
		if peaks[i].count != peaks[j].count {
			return peaks[i].count > peaks[j].count
		}
		return peaks[i].bin < peaks[j].bin
	})

	minSep := cfg.Period / float64(2*k)
	if minSep > 3 {
		minSep = 3
	}
	var means []float64
	for _, p := range peaks {
		if len(means) == k {
			break
		}
		ok := true
		for _, m := range means {
			if math.Abs(CircularDiff(float64(p.bin), m, cfg.Period)) < minSep {
				ok = false
				break
			}
		}
		if ok {
			means = append(means, float64(p.bin))
		}
	}
	// Fallback for histograms with fewer than k well-separated peaks:
	// evenly spaced candidates, *skipping positions that collide with an
	// already-picked mean* — a colliding fallback would seed two
	// near-duplicate components that EM then has to disentangle (or
	// worse, returns as a split artefact). Candidates are tried at even
	// spacing first, then at successively offset sub-grids, so the k
	// means stay as spread out as the occupied circle allows.
	for _, phase := range []float64{0, 0.5, 0.25, 0.75} {
		for i := 0; i < k && len(means) < k; i++ {
			cand := cfg.Period * (float64(i) + phase) / float64(k)
			collides := false
			for _, m := range means {
				if math.Abs(CircularDiff(cand, m, cfg.Period)) < minSep {
					collides = true
					break
				}
			}
			if !collides {
				means = append(means, cand)
			}
		}
	}
	// Degenerate geometry (the whole circle within minSep of picked
	// means) cannot happen for minSep <= Period/(2k), but guarantee k
	// means regardless.
	for i := len(means); i < k; i++ {
		means = append(means, cfg.Period*float64(i)/float64(k))
	}

	mix := make(Mixture, k)
	for i := range mix {
		mix[i] = Gaussian{Weight: 1 / float64(k), Mean: means[i], Sigma: cfg.InitSigma}
	}
	return mix
}

// tidyMixture prunes feather-weight components and merges near-duplicates,
// renormalizing the weights.
func tidyMixture(mix Mixture, cfg EMConfig) Mixture {
	kept := make(Mixture, 0, len(mix))
	for _, g := range mix {
		if g.Weight >= cfg.MinWeight {
			kept = append(kept, g)
		}
	}
	if len(kept) == 0 && len(mix) > 0 {
		d, err := mix.Dominant()
		if err == nil {
			kept = Mixture{d}
		}
	}
	// Merge components closer than the merge radius.
	merged := make(Mixture, 0, len(kept))
	used := make([]bool, len(kept))
	for i := range kept {
		if used[i] {
			continue
		}
		g := kept[i]
		for j := i + 1; j < len(kept); j++ {
			if used[j] {
				continue
			}
			if math.Abs(CircularDiff(g.Mean, kept[j].Mean, cfg.Period)) < cfg.MergeRadius {
				w := g.Weight + kept[j].Weight
				g.Mean = math.Mod(g.Mean+CircularDiff(kept[j].Mean, g.Mean, cfg.Period)*kept[j].Weight/w+cfg.Period, cfg.Period)
				g.Sigma = (g.Sigma*g.Weight + kept[j].Sigma*kept[j].Weight) / w
				g.Weight = w
				used[j] = true
			}
		}
		merged = append(merged, g)
	}
	total := merged.TotalWeight()
	if total > 0 {
		for i := range merged {
			merged[i].Weight /= total
		}
	}
	sortMixture(merged)
	return merged
}

// sortMixture orders components by descending weight, then ascending mean,
// so results have a canonical presentation.
func sortMixture(m Mixture) {
	sort.Slice(m, func(i, j int) bool {
		if m[i].Weight != m[j].Weight {
			return m[i].Weight > m[j].Weight
		}
		return m[i].Mean < m[j].Mean
	})
}
