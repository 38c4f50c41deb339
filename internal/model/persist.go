package model

import (
	"encoding/json"
	"fmt"

	"ken/internal/gauss"
	"ken/internal/mat"
)

// Fitted models must survive deployment: the base station fits once on
// training data and ships the parameters to the motes, after which both
// sides instantiate identical replicas. This file provides the JSON wire
// format for LinearGaussian (the deployable workhorse model).

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
	lg.state = state
	lg.ws = gauss.NewWorkspace(w.N)
	lg.valsBuf = make([]float64, 0, w.N)
	lg.sampleBuf = nil
	return nil
}

// switchingJSON is the stable wire form of a Switching model.
type switchingJSON struct {
	Base    *LinearGaussian `json:"base"`
	Offsets [][]float64     `json:"offsets"`
	Trans   [][]float64     `json:"trans"`
	Probs   []float64       `json:"probs"`
	ObsSD   []float64       `json:"obs_sd"`
}

// MarshalJSON implements json.Marshaler.
func (s *Switching) MarshalJSON() ([]byte, error) {
	return json.Marshal(switchingJSON{
		Base:    s.base,
		Offsets: s.offsets,
		Trans:   s.trans,
		Probs:   s.probs,
		ObsSD:   s.obsSD,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Switching) UnmarshalJSON(data []byte) error {
	var w switchingJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("model: %w", err)
	}
	if w.Base == nil {
		return fmt.Errorf("model: json switching model missing base")
	}
	r := len(w.Offsets)
	if r < 2 || len(w.Trans) != r || len(w.Probs) != r {
		return fmt.Errorf("model: json switching model regime shapes inconsistent (%d offsets, %d trans, %d probs)",
			r, len(w.Trans), len(w.Probs))
	}
	n := w.Base.Dim()
	for i, o := range w.Offsets {
		if len(o) != n {
			return fmt.Errorf("model: json switching offset %d has dim %d, want %d", i, len(o), n)
		}
	}
	for i, row := range w.Trans {
		if len(row) != r {
			return fmt.Errorf("model: json switching transition row %d has %d cols, want %d", i, len(row), r)
		}
	}
	if len(w.ObsSD) != n {
		return fmt.Errorf("model: json switching obsSD dim %d, want %d", len(w.ObsSD), n)
	}
	s.base = w.Base
	s.offsets = w.Offsets
	s.trans = w.Trans
	s.probs = w.Probs
	s.obsSD = w.ObsSD
	return nil
}
