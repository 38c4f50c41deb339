package model

import (
	"encoding/json"
	"fmt"

	"ken/internal/gauss"
	"ken/internal/mat"
)

// Fitted models must survive deployment: the base station fits once on
// training data and ships the parameters to the motes, after which both
// sides instantiate identical replicas. This file provides the JSON form of
// LinearGaussian, the one model family with an encoded form: the oracle
// reads fits back through it and the benchmark's ladder reads its a/q keys.

// linearGaussianJSON is the stable wire form of a LinearGaussian.
type linearGaussianJSON struct {
	N         int         `json:"n"`
	A         *mat.Dense  `json:"a"`
	Q         *mat.Dense  `json:"q"`
	Profile   [][]float64 `json:"profile"`
	Period    int         `json:"period"`
	Clock     int         `json:"clock"`
	StateMean []float64   `json:"state_mean"`
	StateCov  *mat.Dense  `json:"state_cov"`
}

// MarshalJSON implements json.Marshaler. The wire form carries Σ, not the
// debt, so the owed transitions are settled first.
func (lg *LinearGaussian) MarshalJSON() ([]byte, error) {
	lg.settle()
	return json.Marshal(linearGaussianJSON{
		N:         lg.n,
		A:         lg.a,
		Q:         lg.q,
		Profile:   lg.profile,
		Period:    lg.period,
		Clock:     lg.clock,
		StateMean: lg.state.Mean(),
		StateCov:  lg.state.Cov(),
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (lg *LinearGaussian) UnmarshalJSON(data []byte) error {
	var w linearGaussianJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("model: %w", err)
	}
	if w.N <= 0 {
		return fmt.Errorf("model: json model has dimension %d", w.N)
	}
	if w.A == nil || w.Q == nil || w.StateCov == nil {
		return fmt.Errorf("model: json model missing matrices")
	}
	if w.A.Rows() != w.N || w.A.Cols() != w.N || w.Q.Rows() != w.N || w.Q.Cols() != w.N {
		return fmt.Errorf("model: json matrices do not match dimension %d", w.N)
	}
	if w.Clock < 0 {
		return fmt.Errorf("model: json clock %d is negative", w.Clock)
	}
	if w.Period <= 0 || len(w.Profile) != w.Period {
		return fmt.Errorf("model: json profile has %d phases, period %d", len(w.Profile), w.Period)
	}
	for p, row := range w.Profile {
		if len(row) != w.N {
			return fmt.Errorf("model: json profile phase %d has dim %d, want %d", p, len(row), w.N)
		}
	}
	if len(w.StateMean) != w.N || w.StateCov.Rows() != w.N || w.StateCov.Cols() != w.N {
		return fmt.Errorf("model: json state does not match dimension %d", w.N)
	}
	state, err := gauss.New(w.StateMean, w.StateCov)
	if err != nil {
		return err
	}
	lg.n = w.N
	lg.a = w.A
	lg.q = w.Q
	lg.qChol, lg.qErr = factorQ(w.Q)
	lg.q0 = zeroImage(w.Q)
	lg.owed, lg.zero = 0, w.StateCov.MaxAbs() == 0
	lg.profile = w.Profile
	lg.period = w.Period
	lg.clock = w.Clock
	lg.phase = w.Clock % w.Period
	lg.state = state
	lg.ws = gauss.NewWorkspace(w.N)
	lg.valsBuf = make([]float64, 0, w.N)
	lg.sampleBuf = nil
	return nil
}
