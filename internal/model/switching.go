package model

import (
	"fmt"
	"math"
	"slices"

	"ken/internal/gauss"
)

// Switching is a richer model family from the paper's §6 ("Richer
// Probabilistic Models"): a LinearGaussian base augmented with a hidden
// discrete regime that shifts every attribute by a per-regime offset. It
// targets data like the Lab's, where the air-conditioning flips the whole
// zone between two persistent temperature levels that a single Gaussian
// must straddle.
//
// Inference is IMM-style: the replicas maintain a regime posterior that is
// (a) pushed through a sticky transition matrix on Step and (b) reweighted
// by observation likelihoods on Condition, after which the Gaussian base is
// conditioned on the observation with the expected regime offset removed
// (moment-matching collapse). Every update is a deterministic function of
// the conditioned observations, so source and sink replicas remain in
// lock-step — the property Ken requires of any model it deploys.
type Switching struct {
	base    *LinearGaussian
	offsets [][]float64 // regime × n
	trans   [][]float64 // regime transition probabilities (rows sum to 1)
	probs   []float64   // current regime posterior
	// obsSD approximates the per-attribute innovation scale used in the
	// regime likelihoods.
	obsSD []float64

	// The evaluator's hypothetical set, sorted by index: per-instance
	// scratch that Clone never shares.
	hypIdx  []int
	hypVals []float64
}

var _ Model = (*Switching)(nil)

// SwitchingConfig controls FitSwitching.
type SwitchingConfig struct {
	// Base configures the underlying LinearGaussian fit.
	Base FitConfig
	// Regimes is the number of hidden regimes (default 2).
	Regimes int
	// Iterations bounds the k-means regime-labelling loop (default 20).
	Iterations int
}

// FitSwitching learns a switching model: a first-pass LinearGaussian
// residual is clustered (1-D k-means over the per-step mean residual
// level) into regimes; per-regime offsets, a bigram transition matrix and
// a regime-compensated base model are then fit.
func FitSwitching(data [][]float64, cfg SwitchingConfig) (*Switching, error) {
	if cfg.Regimes <= 0 {
		cfg.Regimes = 2
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 20
	}
	if cfg.Regimes == 1 {
		return nil, fmt.Errorf("model: switching model needs >= 2 regimes")
	}
	T := len(data)
	if T < 4*cfg.Regimes {
		return nil, fmt.Errorf("model: FitSwitching needs >= %d rows, got %d", 4*cfg.Regimes, T)
	}
	n := len(data[0])

	// First pass: plain seasonal fit to expose the residual level.
	first, err := FitLinearGaussian(data, cfg.Base)
	if err != nil {
		return nil, err
	}
	profile, period := first.profile, first.period
	level := make([]float64, T)
	for t, row := range data {
		p := profile[t%period]
		s := 0.0
		for i, v := range row {
			s += v - p[i]
		}
		level[t] = s / float64(n)
	}

	labels, centers := kmeans1D(level, cfg.Regimes, cfg.Iterations)

	// Per-regime, per-attribute offsets around the seasonal profile.
	offsets := make([][]float64, cfg.Regimes)
	counts := make([]int, cfg.Regimes)
	for r := range offsets {
		offsets[r] = make([]float64, n)
	}
	for t, row := range data {
		r := labels[t]
		counts[r]++
		p := profile[t%period]
		for i, v := range row {
			offsets[r][i] += v - p[i]
		}
	}
	for r := range offsets {
		if counts[r] == 0 {
			// A starved regime collapses onto its center estimate.
			for i := range offsets[r] {
				offsets[r][i] = centers[r]
			}
			continue
		}
		for i := range offsets[r] {
			offsets[r][i] /= float64(counts[r])
		}
	}

	// Sticky transition matrix from label bigrams (Laplace smoothed).
	trans := make([][]float64, cfg.Regimes)
	for r := range trans {
		trans[r] = make([]float64, cfg.Regimes)
		for q := range trans[r] {
			trans[r][q] = 1 // smoothing
		}
	}
	for t := 1; t < T; t++ {
		trans[labels[t-1]][labels[t]]++
	}
	for r := range trans {
		s := 0.0
		for _, v := range trans[r] {
			s += v
		}
		for q := range trans[r] {
			trans[r][q] /= s
		}
	}

	// Refit the base on regime-compensated data so its residual dynamics
	// exclude the regime shifts.
	comp := make([][]float64, T)
	for t, row := range data {
		r := make([]float64, n)
		for i, v := range row {
			r[i] = v - offsets[labels[t]][i]
		}
		comp[t] = r
	}
	base, err := FitLinearGaussian(comp, cfg.Base)
	if err != nil {
		return nil, err
	}

	obsSD := make([]float64, n)
	for i := 0; i < n; i++ {
		obsSD[i] = math.Sqrt(base.q.At(i, i))
		if obsSD[i] <= 0 {
			obsSD[i] = 1e-6
		}
	}

	probs := make([]float64, cfg.Regimes)
	for r := range probs {
		probs[r] = 1 / float64(cfg.Regimes)
	}
	probs[labels[T-1]] += 0.5 // start near the last observed regime
	normalize(probs)

	return &Switching{
		base:    base,
		offsets: offsets,
		trans:   trans,
		probs:   probs,
		obsSD:   obsSD,
	}, nil
}

// kmeans1D clusters scalar values into k groups, returning labels and
// sorted centers. Deterministic: initial centers are spread quantiles.
func kmeans1D(vals []float64, k, iters int) ([]int, []float64) {
	sorted := append([]float64(nil), vals...)
	insertionSort(sorted)
	centers := make([]float64, k)
	for r := range centers {
		centers[r] = sorted[(2*r+1)*len(sorted)/(2*k)]
	}
	labels := make([]int, len(vals))
	for it := 0; it < iters; it++ {
		changed := false
		for t, v := range vals {
			best, bestD := 0, math.Abs(v-centers[0])
			for r := 1; r < k; r++ {
				if d := math.Abs(v - centers[r]); d < bestD {
					best, bestD = r, d
				}
			}
			if labels[t] != best {
				labels[t] = best
				changed = true
			}
		}
		sums := make([]float64, k)
		counts := make([]int, k)
		for t, v := range vals {
			sums[labels[t]] += v
			counts[labels[t]]++
		}
		for r := range centers {
			if counts[r] > 0 {
				centers[r] = sums[r] / float64(counts[r])
			}
		}
		if !changed {
			break
		}
	}
	return labels, centers
}

func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func normalize(p []float64) {
	s := 0.0
	for _, v := range p {
		s += v
	}
	if s <= 0 {
		for i := range p {
			p[i] = 1 / float64(len(p))
		}
		return
	}
	for i := range p {
		p[i] /= s
	}
}

// Dim implements Model.
func (s *Switching) Dim() int { return s.base.Dim() }

// Regimes returns the number of hidden regimes.
func (s *Switching) Regimes() int { return len(s.offsets) }

// RegimeProbs returns a copy of the current regime posterior.
func (s *Switching) RegimeProbs() []float64 {
	return append([]float64(nil), s.probs...)
}

// Step implements Model: advance the base and push the posterior through
// the transition matrix.
func (s *Switching) Step() {
	s.base.Step()
	next := make([]float64, len(s.probs))
	for r, pr := range s.probs {
		for q := range next {
			next[q] += pr * s.trans[r][q]
		}
	}
	s.probs = next
}

// expectedOffset returns Σ_r p_r·offset_r[i] for every attribute.
func (s *Switching) expectedOffset() []float64 {
	out := make([]float64, s.Dim())
	for r, pr := range s.probs {
		for i, o := range s.offsets[r] {
			out[i] += pr * o
		}
	}
	return out
}

// MeanInto implements MeanWriter: the base mean plus the expected regime
// offset, accumulated per attribute in regime order.
func (s *Switching) MeanInto(dst []float64) error {
	if err := s.base.MeanInto(dst); err != nil {
		return err
	}
	for i := range dst {
		off := 0.0
		for r, pr := range s.probs {
			off += pr * s.offsets[r][i]
		}
		dst[i] += off
	}
	return nil
}

// posteriorGiven reweights the regime posterior by the likelihood of the
// observations under each regime (diagonal approximation). The
// log-likelihood sums run over the observation pair in index order, so
// replicas conditioned on the same report agree to the last bit.
func (s *Switching) posteriorGiven(idx []int, vals []float64) []float64 {
	baseMean := MeanOf(s.base)
	post := make([]float64, len(s.probs))
	for r, pr := range s.probs {
		ll := 0.0
		for k, i := range idx {
			d := (vals[k] - baseMean[i] - s.offsets[r][i]) / s.obsSD[i]
			ll -= 0.5 * d * d
		}
		post[r] = pr * math.Exp(ll)
	}
	normalize(post)
	return post
}

// CondReset implements Model: empty the hypothetical set.
func (s *Switching) CondReset() error {
	s.hypIdx, s.hypVals = s.hypIdx[:0], s.hypVals[:0]
	return nil
}

// CondAdd implements Model: insert (i, v) into the hypothetical set, kept
// sorted by index.
func (s *Switching) CondAdd(i int, v float64) error {
	if i < 0 || i >= s.Dim() {
		return fmt.Errorf("%w: observation index %d out of range %d", ErrDim, i, s.Dim())
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%w: observation %d is %v", gauss.ErrNotFinite, i, v)
	}
	at, found := slices.BinarySearch(s.hypIdx, i)
	if found {
		return fmt.Errorf("model: attribute %d already in the hypothetical set", i)
	}
	s.hypIdx, s.hypVals = slices.Insert(s.hypIdx, at, i), slices.Insert(s.hypVals, at, v)
	return nil
}

// CondMeanInto implements Model: a posterior-weighted mixture of per-regime
// conditional means, each its base's evaluator run over the hypothetical
// set with that regime's offset removed.
func (s *Switching) CondMeanInto(dst []float64) error {
	n, idx, vals := s.Dim(), s.hypIdx, s.hypVals
	if len(dst) != n {
		return fmt.Errorf("%w: CondMeanInto dst len %d, want %d", ErrDim, len(dst), n)
	}
	if len(idx) == 0 {
		return s.MeanInto(dst)
	}
	post := s.posteriorGiven(idx, vals)
	clear(dst)
	cm := make([]float64, n)
	for r, pr := range post {
		if pr == 0 {
			continue
		}
		if err := s.base.CondReset(); err != nil {
			return err
		}
		for k, i := range idx {
			if err := s.base.CondAdd(i, vals[k]-s.offsets[r][i]); err != nil {
				return err
			}
		}
		if err := s.base.CondMeanInto(cm); err != nil {
			return err
		}
		for i := range dst {
			dst[i] += pr * (cm[i] + s.offsets[r][i])
		}
	}
	// Observed attributes are exact regardless of the regime mixture.
	for k, i := range idx {
		dst[i] = vals[k]
	}
	return nil
}

// Condition implements Model: update the regime posterior from the
// observations, then condition the base on the observations with the
// expected offset removed (moment-matching collapse of the mixture).
func (s *Switching) Condition(idx []int, vals []float64) error {
	if err := checkObs(idx, vals, s.Dim()); err != nil {
		return err
	}
	if len(idx) == 0 {
		return nil
	}
	s.probs = s.posteriorGiven(idx, vals)
	off := s.expectedOffset()
	shifted := make([]float64, len(vals))
	for k, i := range idx {
		shifted[k] = vals[k] - off[i]
	}
	return s.base.Condition(idx, shifted)
}

// Clone implements Model.
func (s *Switching) Clone() Model {
	cp := &Switching{
		base:    s.base.Clone().(*LinearGaussian),
		offsets: s.offsets, // immutable after fit
		trans:   s.trans,   // immutable after fit
		probs:   append([]float64(nil), s.probs...),
		obsSD:   s.obsSD, // immutable after fit
	}
	return cp
}
