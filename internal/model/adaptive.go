package model

import (
	"fmt"
)

// Adaptive implements the paper's footnote-4 future work: "we plan to
// address the issue of adapting these parameters over time". It wraps a
// LinearGaussian and periodically refits the transition, innovation and
// seasonal parameters from recent history.
//
// The refit must not break the replicated-model invariant, so it trains on
// data both replicas possess: the stream of post-conditioning means (the
// sink's answers, which the source reconstructs exactly and which Ken
// guarantees lie within ε of the truth). Every refit is a deterministic
// function of that shared stream, so source and sink adapt in lock-step
// with zero extra communication.
//
// Adaptive expects the Ken protocol's calling convention — exactly one
// Condition call after each Step (possibly with an empty report set).
type Adaptive struct {
	inner *LinearGaussian
	cfg   AdaptiveConfig

	history    [][]float64 // recent post-conditioning means, oldest first
	sinceRefit int
}

var _ Model = (*Adaptive)(nil)

// AdaptiveConfig controls online refitting.
type AdaptiveConfig struct {
	// RefitEvery triggers a refit after this many steps (default 168, one
	// week of hourly samples).
	RefitEvery int
	// Window is the number of recent steps to train on (default
	// 2×RefitEvery). Must allow a viable fit: at least 4 rows are kept.
	Window int
	// Fit configures each refit (period, ridge, structure).
	Fit FitConfig
}

func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.RefitEvery <= 0 {
		c.RefitEvery = 168
	}
	if c.Window <= 0 {
		c.Window = 2 * c.RefitEvery
	}
	return c
}

// NewAdaptive wraps a fitted model with online refitting.
func NewAdaptive(inner *LinearGaussian, cfg AdaptiveConfig) (*Adaptive, error) {
	if inner == nil {
		return nil, fmt.Errorf("model: NewAdaptive needs a fitted inner model")
	}
	cfg = cfg.withDefaults()
	if cfg.Window < 4 {
		return nil, fmt.Errorf("model: adaptive window %d too small", cfg.Window)
	}
	return &Adaptive{inner: inner.Clone().(*LinearGaussian), cfg: cfg}, nil
}

// Dim implements Model.
func (a *Adaptive) Dim() int { return a.inner.Dim() }

// Step implements Model: record the previous step's post-conditioning mean
// into the shared history, refit when due, then advance.
func (a *Adaptive) Step() {
	a.history = append(a.history, MeanOf(a.inner))
	if len(a.history) > a.cfg.Window {
		a.history = a.history[len(a.history)-a.cfg.Window:]
	}
	a.sinceRefit++
	if a.sinceRefit >= a.cfg.RefitEvery && len(a.history) >= 4 {
		a.refit()
		a.sinceRefit = 0
	}
	a.inner.Step()
}

// refit re-estimates the model from history, keeping the absolute clock
// (and therefore the seasonal phase) aligned.
func (a *Adaptive) refit() {
	refitted, err := FitLinearGaussian(a.history, a.cfg.Fit)
	if err != nil {
		// A degenerate window (e.g. constant estimates) cannot be fit;
		// keep the current parameters and try again next period.
		return
	}
	clock := a.inner.clock
	// The fitted profile is phased by history index; rotate it so that
	// index (clock − len(history) + 1 + q) mod period owns phase q.
	if refitted.period > 1 {
		start := clock - len(a.history) + 1
		p := refitted.period
		rot := make([][]float64, p)
		for q := 0; q < p; q++ {
			abs := ((start+q)%p + p) % p
			rot[abs] = refitted.profile[q%p]
		}
		// Guard against gaps (cannot happen when len(history) ≥ period,
		// which the 2-cycle fitting rule inside seasonalProfile ensures).
		for q := range rot {
			if rot[q] == nil {
				rot[q] = refitted.profile[q]
			}
		}
		refitted.profile = rot
	}
	refitted.clock, refitted.phase = clock, clock%refitted.period
	// Carry the belief state over: same mean, fresh-fit residual frame.
	all := make([]int, refitted.n)
	for i := range all {
		all[i] = i
	}
	if err := refitted.Condition(all, MeanOf(a.inner)); err != nil {
		return
	}
	a.inner = refitted
}

// MeanInto implements MeanWriter.
func (a *Adaptive) MeanInto(dst []float64) error { return a.inner.MeanInto(dst) }

// MeanGiven implements Model.
func (a *Adaptive) MeanGiven(idx []int, vals []float64) ([]float64, error) {
	return a.inner.MeanGiven(idx, vals)
}

// Condition implements Model.
func (a *Adaptive) Condition(idx []int, vals []float64) error {
	return a.inner.Condition(idx, vals)
}

// Clone implements Model.
func (a *Adaptive) Clone() Model {
	cp := &Adaptive{
		inner:      a.inner.Clone().(*LinearGaussian),
		cfg:        a.cfg,
		sinceRefit: a.sinceRefit,
	}
	cp.history = make([][]float64, len(a.history))
	for i, row := range a.history {
		cp.history[i] = append([]float64(nil), row...)
	}
	return cp
}

// Inner returns the wrapped model — the live one, not a copy — so a test can
// read what a refit left in place (TestAdaptiveRefitKeepsPhase reads its
// clock).
func (a *Adaptive) Inner() *LinearGaussian { return a.inner }
