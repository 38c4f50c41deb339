package model

import (
	"fmt"
	"math/rand"

	"ken/internal/gauss"
	"ken/internal/mat"
)

// LinearGaussian is the paper's workhorse model (Example 3.3, §5.1): a
// time-varying multivariate Gaussian over a clique of attributes. The
// attribute vector is decomposed into a seasonal (diurnal) mean profile
// plus a residual that follows a VAR(1) process with correlated Gaussian
// innovations:
//
//	x(t) = profile[t mod period] + r(t),   r(t+1) = A·r(t) + w,  w ~ N(0, Q)
//
// The model state is the Gaussian belief over the current residual; Step
// pushes it through the transition (inflating uncertainty by Q), Condition
// collapses it on reported values via Gaussian conditioning. Because the
// transition and conditioning are deterministic given the same inputs, two
// clones remain in lock-step — the replicated-model invariant of Ken.
type LinearGaussian struct {
	n       int
	a       *mat.Dense    // shared, immutable after fit
	q       *mat.Dense    // shared, immutable after fit
	qChol   *mat.Cholesky // Q = L·Lᵀ for SampleNext, factored once per fit or load; shared, read-only
	qErr    error         // why Q did not factor; SampleNext returns it
	profile [][]float64   // period × n seasonal means; shared, immutable
	period  int
	clock   int
	phase   int             // clock % period, kept beside the clock by everything that writes it
	state   *gauss.Gaussian // belief over the residual r(clock); its Σ is owed transitions behind
	q0      *mat.Dense      // Symmetrize(0 + Q), what one transition makes of a zero Σ; shared, immutable after fit

	// Answers come from the mean alone, so Step runs μ ← A·μ and counts the
	// covariance transition as owed; settle runs the owed ones before
	// anything reads Σ. zero marks an all-+0 Σ (fresh fit, full report),
	// whose next transition is a copy of q0.
	owed int
	zero bool

	// Per-instance scratch for the in-place Step/Condition path. Never
	// shared between clones: replicas mutate their own scratch while
	// updating, and sharing would break replica independence.
	ws        *gauss.Workspace
	valsBuf   []float64
	sampleBuf []float64 // SampleNext's 3n scratch, made on first use
}

var (
	_ Model       = (*LinearGaussian)(nil)
	_ MeanWriter  = (*LinearGaussian)(nil)
	_ Sampler     = (*LinearGaussian)(nil)
	_ StateCopier = (*LinearGaussian)(nil)
)

// ridge is the relative ridge regularisation of the VAR solve and the
// innovation covariance.
const ridge = 1e-6

// FitConfig controls LinearGaussian learning.
type FitConfig struct {
	// Period is the number of steps per seasonal cycle (24 for hourly
	// samples with diurnal behaviour). Zero or one disables seasonality.
	// The seasonal profile is only used when the training data covers at
	// least two full cycles.
	Period int
	// DiagonalA restricts the transition matrix to a diagonal (independent
	// AR(1) per attribute). Spatial correlation then only enters through
	// the innovation covariance Q. This is the paper's implicit structure
	// for small cliques and an ablation point for larger ones.
	DiagonalA bool
}

// FitLinearGaussian learns a LinearGaussian from training rows
// (data[t][i] = attribute i at step t). The returned model's clock is at
// the last training row with a point-mass state on it, so the first Step
// predicts the first post-training step. It is FitColumns over every
// column.
func FitLinearGaussian(data [][]float64, cfg FitConfig) (*LinearGaussian, error) {
	var all []int
	if len(data) > 0 {
		all = make([]int, len(data[0]))
		for i := range all {
			all[i] = i
		}
	}
	return FitColumns(data, all, cfg)
}

// FitColumns fits the LinearGaussian of the training rows' columns cols, in
// that order. It reads those columns alone: the seasonal profile, the
// residuals around it and the lag-0/lag-1 sums of the VAR normal equations
// are each per column or per pair of columns, so the fit is bit for bit
// FitLinearGaussian of the rows projected onto cols. Input that no fit can
// read — fewer than 4 rows, rows of unequal width, an empty cols, a column
// out of range — is refused with ErrDim before any row is read.
func FitColumns(data [][]float64, cols []int, cfg FitConfig) (*LinearGaussian, error) {
	T := len(data)
	if T < 4 {
		return nil, fmt.Errorf("%w: fitting needs >= 4 training rows, got %d", ErrDim, T)
	}
	k, n := len(cols), len(data[0])
	for t, row := range data {
		if len(row) != n {
			return nil, fmt.Errorf("%w: training row %d has %d attributes, want %d", ErrDim, t, len(row), n)
		}
	}
	if k == 0 {
		return nil, fmt.Errorf("%w: no columns to fit", ErrDim)
	}
	for _, c := range cols {
		if c < 0 || c >= n {
			return nil, fmt.Errorf("%w: column %d outside the %d trained", ErrDim, c, n)
		}
	}

	// The residuals around the seasonal profile, made in place in one copy
	// of the columns.
	res := mat.SelectCols(data, cols)
	profile, period := seasonalProfile(res, cfg.Period)
	for t, r := range res {
		p := profile[t%period]
		for i := range r {
			r[i] -= p[i]
		}
	}

	a, err := fitVAR(res, cfg.DiagonalA)
	if err != nil {
		return nil, err
	}

	// Innovation covariance from one-step fit errors.
	errs := make([][]float64, T-1)
	eflat := make([]float64, (T-1)*k)
	for t := range errs {
		e := eflat[t*k : (t+1)*k : (t+1)*k]
		if err := a.MulVecInto(e, res[t]); err != nil {
			return nil, err
		}
		for i, v := range res[t+1] {
			e[i] = v - e[i]
		}
		errs[t] = e
	}
	mu, err := gauss.EstimateMean(errs)
	if err != nil {
		return nil, err
	}
	q, err := gauss.EstimateCov(errs, mu, ridge)
	if err != nil {
		return nil, err
	}

	state, err := gauss.New(res[T-1], mat.NewDense(k, k))
	if err != nil {
		return nil, err
	}
	qChol, qErr := factorQ(q)
	return &LinearGaussian{
		n:       k,
		a:       a,
		q:       q,
		qChol:   qChol,
		qErr:    qErr,
		q0:      zeroImage(q),
		zero:    true,
		profile: profile,
		period:  period,
		clock:   T - 1,
		phase:   (T - 1) % period,
		state:   state,
		ws:      gauss.NewWorkspace(k),
		valsBuf: make([]float64, 0, k),
	}, nil
}

// factorQ factors the innovation covariance for SampleNext. A Q that does
// not factor fails no fit or load, only the sampling that needs it.
func factorQ(q *mat.Dense) (*mat.Cholesky, error) {
	ch, err := mat.NewCholesky(q)
	if err != nil {
		return nil, fmt.Errorf("model: innovation covariance not PD: %w", err)
	}
	return ch, nil
}

// zeroImage returns Symmetrize(0 + Q): bit for bit what Σ ← A·Σ·Aᵀ + Q makes
// of an all-zero Σ (the products are all +0, and +0 + q turns a −0 into +0).
func zeroImage(q *mat.Dense) *mat.Dense {
	img := mat.NewDense(q.Rows(), q.Cols())
	if err := img.AddInto(img, q); err != nil {
		panic(err) // same shape by construction
	}
	img.Symmetrize()
	return img
}

// seasonalProfile returns the per-phase mean rows and the effective period.
// When the requested period is unusable (shorter than 2 or not covered at
// least twice by the data) it degrades to a single global-mean phase.
func seasonalProfile(data [][]float64, period int) ([][]float64, int) {
	T, n := len(data), len(data[0])
	if period < 2 || T < 2*period {
		mean := make([]float64, n)
		for _, row := range data {
			for i, v := range row {
				mean[i] += v
			}
		}
		for i := range mean {
			mean[i] /= float64(T)
		}
		return [][]float64{mean}, 1
	}
	profile := make([][]float64, period)
	flat := make([]float64, period*n)
	for p := range profile {
		profile[p] = flat[p*n : (p+1)*n : (p+1)*n]
	}
	for t, row := range data {
		p := profile[t%period]
		for i, v := range row {
			p[i] += v
		}
	}
	for p, row := range profile {
		count := T / period // the rows t with t mod period == p
		if p < T%period {
			count++
		}
		for i := range row {
			row[i] /= float64(count)
		}
	}
	return profile, period
}

// fitVAR solves the ridge least-squares problem R1 ≈ R0·Aᵀ for the
// transition matrix A over the residual rows res. Its sums run in t order,
// and row i of them skips the t where r_t[i] is zero, a rule that reads
// column i alone. The diagonal form reads the diagonal of the same sums.
func fitVAR(res [][]float64, diagonal bool) (*mat.Dense, error) {
	T, k := len(res)-1, len(res[0])
	// xtx[i][j] = Σ r_t[i]·r_t[j] and xty[i][j] = Σ r_t[i]·r_{t+1}[j] over
	// t < T.
	xtx, xty := mat.NewDense(k, k), mat.NewDense(k, k)
	lag0, lag1 := xtx.DataView(), xty.DataView()
	for t := 0; t < T; t++ {
		cur, next := res[t], res[t+1]
		for i, xi := range cur {
			if xi == 0 {
				continue
			}
			r0, r1 := lag0[i*k:(i+1)*k], lag1[i*k:(i+1)*k]
			for j := range r0 {
				r0[j] += xi * cur[j]
				r1[j] += xi * next[j]
			}
		}
	}
	if diagonal {
		a := mat.NewDense(k, k)
		for i := 0; i < k; i++ {
			sxx, sxy := xtx.At(i, i), xty.At(i, i)
			den := sxx + ridge*(1+sxx/float64(T))
			if den == 0 {
				a.Set(i, i, 0)
			} else {
				a.Set(i, i, sxy/den)
			}
		}
		return a, nil
	}
	// Normal equations: (R0ᵀR0 + λI)·Aᵀ = R0ᵀR1.
	lambda := ridge * (traceOf(xtx)/float64(k) + 1)
	for i := 0; i < k; i++ {
		xtx.Add(i, i, lambda)
	}
	ch, err := mat.NewCholesky(xtx)
	if err != nil {
		return nil, fmt.Errorf("model: VAR normal equations: %w", err)
	}
	at, err := ch.Solve(xty)
	if err != nil {
		return nil, err
	}
	return at.T(), nil
}

func traceOf(m *mat.Dense) float64 {
	s := 0.0
	for i := 0; i < m.Rows(); i++ {
		s += m.At(i, i)
	}
	return s
}

// Dim implements Model.
func (lg *LinearGaussian) Dim() int { return lg.n }

// Clock returns the model's current time index (for testing phase math).
func (lg *LinearGaussian) Clock() int { return lg.clock }

// maxOwed bounds the covariance debt, and with it what one settling call
// can cost a tenant that is never heard from.
const maxOwed = 64

// Step implements Model: clock++, μ ← A·μ in place against the instance
// workspace, and one more covariance transition owed (see settle).
func (lg *LinearGaussian) Step() {
	if err := lg.state.PredictMean(lg.a, lg.ws); err != nil {
		panic(err) // dimensions fixed at construction
	}
	lg.clock++
	if lg.phase++; lg.phase == lg.period {
		lg.phase = 0
	}
	if lg.owed++; lg.owed == maxOwed {
		lg.settle()
	}
}

// settle runs the owed Σ ← A·Σ·Aᵀ + Q transitions: the operations Step
// deferred, in the order it deferred them, hence the same bits. Everything
// that reads Σ calls it first.
func (lg *LinearGaussian) settle() {
	for ; lg.owed > 0; lg.owed-- {
		a, q := lg.a, lg.q
		if lg.zero {
			a, q, lg.zero = nil, lg.q0, false
		}
		if err := lg.state.PredictCov(a, nil, q, lg.ws); err != nil {
			panic(err) // dimensions fixed at construction
		}
	}
}

// phaseMean returns the seasonal profile row for the current clock.
func (lg *LinearGaussian) phaseMean() []float64 {
	return lg.profile[lg.phase]
}

// MeanInto implements MeanWriter: the belief's residual mean plus the
// seasonal profile. dst must have length Dim().
func (lg *LinearGaussian) MeanInto(dst []float64) error {
	if err := lg.state.MeanInto(dst); err != nil {
		return err
	}
	p := lg.phaseMean()
	for i := range dst {
		dst[i] += p[i]
	}
	return nil
}

// Cov returns the covariance of the current belief (residual scale; the
// seasonal shift does not affect it).
func (lg *LinearGaussian) Cov() *mat.Dense {
	lg.settle()
	return lg.state.Cov()
}

// Generation returns the model's state mutation counter (bumped by Step
// and Condition). Cached artifacts derived from the belief state — the
// incremental conditioning factorization below, sink-side query plans —
// key on it for invalidation.
func (lg *LinearGaussian) Generation() uint64 { return lg.ws.Generation() }

// CondReset implements Model: begin a new hypothetical observed set
// against the current belief state, rebinding the workspace's cached
// factorization to the current generation.
func (lg *LinearGaussian) CondReset() error {
	lg.settle()
	return lg.state.CondReset(lg.ws)
}

// CondAdd implements Model. The absolute value is converted to residual
// space (v − seasonal mean), mirroring Condition; the cached observed-block
// factor grows by one bordered row. A non-finite v stays non-finite in
// residual space, so gauss refuses it with ErrNotFinite; a degenerate pivot
// (zero-variance attribute) is gauss.ErrDegenerate. Either way the
// evaluator is unchanged.
func (lg *LinearGaussian) CondAdd(i int, v float64) error {
	if i < 0 || i >= lg.n {
		return fmt.Errorf("%w: observation index %d out of range %d", ErrDim, i, lg.n)
	}
	return lg.state.CondAdd(i, v-lg.phaseMean()[i], lg.ws)
}

// CondMeanInto implements Model: the conditional mean given the
// hypothetical set, without mutating the model and without refactorizing.
func (lg *LinearGaussian) CondMeanInto(dst []float64) error {
	if err := lg.state.CondMeanInto(dst, lg.ws); err != nil {
		return err
	}
	p := lg.phaseMean()
	for i := range dst {
		dst[i] += p[i]
	}
	return nil
}

// Condition implements Model: collapse the belief on the observed values.
// Observed attributes become exact (zero variance) until the next Step
// re-inflates uncertainty through Q. The update runs in place against the
// instance scratch (see gauss.Gaussian.ObserveExact).
func (lg *LinearGaussian) Condition(idx []int, vals []float64) error {
	if len(idx) == 0 && len(vals) == 0 {
		return nil
	}
	if err := checkRange(idx, vals, lg.n); err != nil {
		return err
	}
	p := lg.phaseMean()
	res := lg.valsBuf[:len(vals)]
	for k, i := range idx {
		res[k] = vals[k] - p[i]
	}
	// A report of every attribute leaves the point mass whatever Σ was: it
	// reads nothing, and once ObserveExact has accepted it the debt is
	// dropped unrun. A refused one leaves it owed.
	if len(idx) < lg.n {
		lg.settle()
	}
	err := lg.state.ObserveExact(idx, res, lg.ws)
	if err == nil && len(idx) == lg.n {
		lg.owed, lg.zero = 0, true
	}
	return err
}

// Clone implements Model. The learned parameters (A, Q, profile) are
// immutable after fitting and shared between clones; the belief state and
// the update scratch are per-instance — a shared workspace would let one
// replica's update corrupt the other's. The clone inherits the covariance
// debt unsettled: Clone writes nothing to its receiver, so concurrent
// clones of one fitted model are safe.
func (lg *LinearGaussian) Clone() Model {
	cp := *lg
	cp.state = lg.state.Clone()
	cp.ws = gauss.NewWorkspace(lg.n)
	cp.valsBuf = make([]float64, 0, lg.n)
	cp.sampleBuf = nil
	return &cp
}

// CopyStateFrom implements StateCopier: the belief, the clock, the owed
// transitions and the zero mark of src, a replica sharing lg's fitted
// parameters. The debt is copied unsettled, as Clone inherits it.
func (lg *LinearGaussian) CopyStateFrom(src Model) error {
	s, ok := src.(*LinearGaussian)
	if !ok || s.a != lg.a || s.q != lg.q {
		return fmt.Errorf("model: CopyStateFrom needs a LinearGaussian of the same fit")
	}
	if err := lg.state.CopyFrom(s.state, lg.ws); err != nil {
		return err
	}
	lg.clock, lg.phase, lg.owed, lg.zero = s.clock, s.phase, s.owed, s.zero
	return nil
}

// SampleState implements Sampler: draw the residual from the belief and add
// the seasonal mean. A point-mass belief (zero covariance) gives the mean,
// and a fresh fit's or a full report's allocates nothing.
func (lg *LinearGaussian) SampleState(dst []float64, rng *rand.Rand) error {
	if len(dst) != lg.n {
		return fmt.Errorf("%w: sample output %d, model %d", ErrDim, len(dst), lg.n)
	}
	lg.settle()
	if lg.zero || lg.state.Cov().MaxAbs() == 0 {
		return lg.MeanInto(dst)
	}
	r, err := lg.state.Sample(rng)
	if err != nil {
		return err
	}
	p := lg.phaseMean()
	for i := range dst {
		dst[i] = r[i] + p[i]
	}
	return nil
}

// SampleNext implements Sampler: given ground truth x at the model's
// current clock, draw x(t+1) from the transition into dst. Call before Step
// when co-simulating truth and belief. After the first call it allocates
// nothing.
func (lg *LinearGaussian) SampleNext(dst, x []float64, rng *rand.Rand) error {
	if len(x) != lg.n || len(dst) != lg.n {
		return fmt.Errorf("%w: sample input %d, output %d, model %d", ErrDim, len(x), len(dst), lg.n)
	}
	if lg.qErr != nil {
		return lg.qErr
	}
	if lg.sampleBuf == nil {
		lg.sampleBuf = make([]float64, 3*lg.n)
	}
	n := lg.n
	r, ar, w := lg.sampleBuf[:n], lg.sampleBuf[n:2*n], lg.sampleBuf[2*n:]
	p := lg.phaseMean()
	for i := range r {
		r[i] = x[i] - p[i]
	}
	if err := lg.a.MulVecInto(ar, r); err != nil {
		return err
	}
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	if err := lg.qChol.MulLVecInto(w, w); err != nil {
		return err
	}
	next := lg.profile[0]
	if lg.phase+1 < lg.period {
		next = lg.profile[lg.phase+1]
	}
	for i := range dst {
		dst[i] = next[i] + ar[i] + w[i]
	}
	return nil
}
