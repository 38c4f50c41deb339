package model

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ken/internal/gauss"
	"ken/internal/mat"
)

// The owed covariance is held to an eager reference built here from
// gauss.Predict and ObserveExact: the same fit, its mean and its covariance
// pushed through every transition, whether or not anyone will read Σ. A
// schedule is a byte string decoded into epochs (suppress, partial report,
// full report, heartbeat, rejected report) and Σ readers; the lazy replicas
// must answer every one with the reference's bits.

const (
	opSuppress  = iota // Step, empty report
	opPartial          // Step, a proper subset reported (arg: which, and how far off)
	opFull             // Step, every attribute reported off the prediction (a 2-of-2 report, a singleton's)
	opHeartbeat        // Step, every attribute reported on the prediction
	opReject           // a full-width report the model must refuse (arg: the fault); no Step
	opMeanGiven        // the evaluator, the set inserted in index order (arg: the observed set)
	opEvaluator        // CondReset, CondAdd…, CondMeanInto (arg: the set and its insertion order)
	opCov
	opClone // clone a replica; both continue
	opJSON  // save, load; both continue
	numOps
)

// eager is the reference: lg supplies the fitted parameters only.
type eager struct {
	lg    *LinearGaussian
	g     *gauss.Gaussian
	ws    *gauss.Workspace
	clock int
}

func newEager(lg *LinearGaussian) *eager {
	if lg.owed != 0 {
		panic("reference built from a model in debt")
	}
	return &eager{lg: lg, g: lg.state.Clone(), ws: gauss.NewWorkspace(lg.n), clock: lg.clock}
}

func (e *eager) step() {
	if err := e.g.Predict(e.lg.a, nil, e.lg.q, e.ws); err != nil {
		panic(err)
	}
	e.clock++
}

func (e *eager) phase() []float64 { return e.lg.profile[e.clock%e.lg.period] }

// residual moves absolute values into the belief's residual frame.
func (e *eager) residual(idx []int, vals []float64) []float64 {
	p, res := e.phase(), make([]float64, len(vals))
	for k := range res {
		res[k] = vals[k] - p[idx[k]]
	}
	return res
}

func (e *eager) absolute(res []float64) []float64 {
	p, out := e.phase(), make([]float64, len(res))
	for i := range out {
		out[i] = res[i] + p[i]
	}
	return out
}

func (e *eager) mean() []float64 { return e.absolute(e.g.Mean()) }

func (e *eager) condition(idx []int, vals []float64) error {
	if len(idx) != len(vals) {
		return ErrDim
	}
	return e.g.ObserveExact(idx, e.residual(idx, vals), e.ws)
}

// evaluate answers the incremental evaluator's question on the reference.
func (e *eager) evaluate(order []int, vals []float64) ([]float64, error) {
	if err := e.g.CondReset(e.ws); err != nil {
		return nil, err
	}
	p := e.phase()
	for k, i := range order {
		if err := e.g.CondAdd(i, vals[k]-p[i], e.ws); err != nil {
			return nil, err
		}
	}
	dst := make([]float64, e.lg.n)
	if err := e.g.CondMeanInto(dst, e.ws); err != nil {
		return nil, err
	}
	return e.absolute(dst), nil
}

// debtTally counts what became of the covariance transitions a replica
// was asked for: run as A·Σ·Aᵀ + Q, replaced by the copy of the zero-Σ
// image, or dropped unrun under a full report.
type debtTally struct{ run, copied, dropped int }

// lazy is a replica under test with the tally of its debt, read through
// Debt around every call that can settle or drop it.
type lazy struct {
	*LinearGaussian
	debtTally
}

func (l *lazy) settled(owed int, zero bool) {
	if owed > 0 && zero {
		l.copied++
		owed--
	}
	l.run += owed
}

func (l *lazy) step() {
	owed, zero := l.Debt()
	l.Step()
	if after, _ := l.Debt(); after == 0 {
		l.settled(owed+1, zero)
	}
}

func (l *lazy) condition(idx []int, vals []float64) error {
	owed, zero := l.Debt()
	err := l.Condition(idx, vals)
	switch after, _ := l.Debt(); {
	case after == owed: // an empty report, or a refused one
	case err == nil && len(idx) == l.n:
		l.dropped += owed
	default:
		l.settled(owed, zero)
	}
	return err
}

// read runs a Σ reader, which must leave nothing owed.
func (l *lazy) read(t testing.TB, reader func()) {
	t.Helper()
	owed, zero := l.Debt()
	reader()
	if after, _ := l.Debt(); after != 0 {
		t.Fatalf("a Σ reader left %d transitions owed", after)
	}
	l.settled(owed, zero)
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func sameMatBits(a, b *mat.Dense) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		if !sameBits(a.Row(i), b.Row(i)) {
			return false
		}
	}
	return true
}

// subset decodes mask into ascending attribute indices below n.
func subset(mask byte, n int) []int {
	var idx []int
	for i := 0; i < n; i++ {
		if mask>>(i%8)&1 == 1 {
			idx = append(idx, i)
		}
	}
	return idx
}

// runSchedule replays sched against the reference and against lazy replicas
// cloned from base (more join at opClone and opJSON), failing t on the first
// bit that differs: the mean after every op, Σ at every reader and at the
// end. It returns the first replica's tally.
func runSchedule(t testing.TB, base *LinearGaussian, sched []byte) debtTally {
	t.Helper()
	n := base.n
	ref := newEager(base)
	reps := []*lazy{{LinearGaussian: base.Clone().(*LinearGaussian)}}
	join := func(lg *LinearGaussian) {
		if len(reps) < 3 {
			reps = append(reps, &lazy{LinearGaussian: lg})
		} else {
			reps[2] = &lazy{LinearGaussian: lg}
		}
	}
	checkCov := func(at int, what string) {
		t.Helper()
		want := ref.g.Cov()
		for r, l := range reps {
			var got *mat.Dense
			l.read(t, func() { got = l.Cov() })
			if !sameMatBits(got, want) {
				t.Fatalf("op %d (%s): replica %d Σ\n%v, reference\n%v", at, what, r, got, want)
			}
		}
	}
	for at := 0; at < len(sched); at++ {
		op := sched[at] % numOps
		var arg byte
		if op != opSuppress && op != opCov && op != opClone && op != opJSON && at+1 < len(sched) {
			at++
			arg = sched[at]
		}
		// Reports are taken off the reference's prediction, by an amount
		// the argument decides.
		off := func(i int) float64 { return float64(int(arg)-128+i) / 32 }
		switch op {
		case opSuppress, opPartial, opFull, opHeartbeat:
			ref.step()
			for _, l := range reps {
				l.step()
			}
			var idx []int
			switch op {
			case opPartial:
				if idx = subset(arg, n); len(idx) == 0 {
					idx = []int{int(arg) % n}
				}
				if len(idx) == n && n > 1 {
					idx = idx[:n-1]
				}
			case opFull, opHeartbeat:
				idx = subset(0xFF, n)
			}
			mean, vals := ref.mean(), make([]float64, len(idx))
			for k, i := range idx {
				vals[k] = mean[i]
				if op != opHeartbeat {
					vals[k] += off(i)
				}
			}
			want := ref.condition(idx, vals)
			for r, l := range reps {
				if got := l.condition(idx, vals); (got == nil) != (want == nil) {
					t.Fatalf("op %d: replica %d Condition(%v) = %v, reference %v", at, r, idx, got, want)
				}
			}
		case opReject:
			idx := subset(0xFF, n)
			vals := ref.mean()
			var is error
			switch fault := arg % 3; {
			case fault == 0 || n == 1 && fault == 1:
				vals[int(arg)%n], is = math.NaN(), gauss.ErrNotFinite
			case fault == 1:
				idx[0], idx[1] = idx[1], idx[0]
			default:
				vals, is = vals[:n-1], ErrDim
			}
			if ref.condition(idx, vals) == nil {
				t.Fatalf("op %d: the reference took a malformed report", at)
			}
			for r, l := range reps {
				owed, zero := l.Debt()
				err := l.condition(idx, vals)
				if err == nil || is != nil && !errors.Is(err, is) {
					t.Fatalf("op %d: replica %d refused a malformed full report with %v, want %v", at, r, err, is)
				}
				if o, z := l.Debt(); o != owed || z != zero {
					t.Fatalf("op %d: a refused report moved replica %d's debt from %d to %d", at, r, owed, o)
				}
			}
		case opMeanGiven, opEvaluator:
			// The set subset(arg), inserted in index order for opMeanGiven
			// and from a rotated start for opEvaluator.
			start := 0
			if op == opEvaluator {
				start = int(arg) % n
			}
			var order []int
			for j := 0; j < n; j++ {
				if i := (start + j) % n; arg>>(i%8)&1 == 1 {
					order = append(order, i)
				}
			}
			mean, vals := ref.mean(), make([]float64, len(order))
			for k, i := range order {
				vals[k] = mean[i] + off(i)
			}
			want, wantErr := ref.evaluate(order, vals)
			for r, l := range reps {
				var err error
				l.read(t, func() { err = l.CondReset() })
				for k := 0; err == nil && k < len(order); k++ {
					err = l.CondAdd(order[k], vals[k])
				}
				var got []float64
				if err == nil {
					got = make([]float64, n)
					err = l.CondMeanInto(got)
				}
				if (err == nil) != (wantErr == nil) || err == nil && !sameBits(got, want) {
					t.Fatalf("op %d: replica %d evaluator over %v = %v %v, reference %v %v", at, r, order, got, err, want, wantErr)
				}
			}
			checkCov(at, "evaluator")
		case opCov:
			checkCov(at, "Cov")
		case opClone:
			l := reps[len(reps)-1]
			owed, zero := l.Debt()
			cp := l.Clone().(*LinearGaussian)
			if o, z := l.Debt(); o != owed || z != zero {
				t.Fatalf("op %d: Clone moved its receiver's debt from %d to %d", at, owed, o)
			}
			if o, z := cp.Debt(); o != owed || z != zero {
				t.Fatalf("op %d: the clone owes %d, its original %d", at, o, owed)
			}
			twin := cp.Clone().(*LinearGaussian)
			twin.Step()
			if err := twin.CopyStateFrom(l.LinearGaussian); err != nil || twin.clock != l.clock || twin.phase != l.phase {
				t.Fatalf("op %d: CopyStateFrom took clock %d phase %d from clock %d phase %d (%v)", at, twin.clock, twin.phase, l.clock, l.phase, err)
			}
			join(cp)
		case opJSON:
			l := reps[0]
			var buf []byte
			var err error
			l.read(t, func() { buf, err = json.Marshal(l.LinearGaussian) })
			if err != nil {
				t.Fatal(err)
			}
			loaded := new(LinearGaussian)
			if err := json.Unmarshal(buf, loaded); err != nil {
				t.Fatal(err)
			}
			join(loaded)
			checkCov(at, "JSON")
		}
		want := ref.mean()
		for r, l := range reps {
			if got := MeanOf(l); !sameBits(got, want) {
				t.Fatalf("op %d (kind %d): replica %d mean %v, reference %v", at, op, r, got, want)
			}
			if l.Clock() != ref.clock {
				t.Fatalf("op %d: replica %d clock %d, reference %d", at, r, l.Clock(), ref.clock)
			}
			if l.phase != l.clock%l.period {
				t.Fatalf("op %d: replica %d phase %d at clock %d of period %d", at, r, l.phase, l.clock, l.period)
			}
		}
	}
	checkCov(len(sched), "end")
	return reps[0].debtTally
}

// negZeroQ is a two-attribute model whose Q carries −0 off the diagonal:
// the eager transition turns it into +0 (A·0·Aᵀ is +0, and +0 + −0 = +0),
// so the zero-Σ image must be 0 + Q, not Q.
const negZeroQ = `{"n":2,"a":{"rows":[[0.9,0.05],[-0.1,0.8]]},"q":{"rows":[[0.04,-0],[-0,0.09]]},` +
	`"profile":[[20,21],[20.5,21.5],[19,22]],"period":3,"clock":7,"state_mean":[0.3,-0.2],"state_cov":{"rows":[[0,0],[0,0]]}}`

// scheduleBases returns the fitted models schedules run against: garden
// cliques of 1, 2, 3 and 8 attributes and the −0 model.
func scheduleBases(t testing.TB) []*LinearGaussian {
	t.Helper()
	var bases []*LinearGaussian
	for _, n := range []int{1, 2, 3, 8} {
		lg, err := FitLinearGaussian(gardenCols(t, 100, n), FitConfig{Period: 24})
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, lg)
	}
	return append(bases, negZeroBase(t))
}

// negZeroBase loads the −0 model through UnmarshalJSON.
func negZeroBase(t testing.TB) *LinearGaussian {
	t.Helper()
	nz := new(LinearGaussian)
	if err := json.Unmarshal([]byte(negZeroQ), nz); err != nil {
		t.Fatal(err)
	}
	if !math.Signbit(nz.q.At(0, 1)) {
		t.Fatal("the −0 in Q did not survive UnmarshalJSON")
	}
	return nz
}

func TestOwedCovarianceMatchesEagerReference(t *testing.T) {
	for b, base := range scheduleBases(t) {
		for seed := int64(1); seed <= 6; seed++ {
			sched := make([]byte, 600)
			rand.New(rand.NewSource(seed)).Read(sched)
			tally := runSchedule(t, base, sched)
			if base.n > 1 && (tally.run == 0 || tally.copied == 0 || tally.dropped == 0) {
				t.Fatalf("base %d seed %d: %+v — a way of meeting the debt was never exercised", b, seed, tally)
			}
		}
	}
}

// The first transition out of a zero Σ is the copy, and the copy is 0 + Q.
func TestZeroImageIsZeroPlusQ(t *testing.T) {
	nz := negZeroBase(t)
	tally := runSchedule(t, nz, []byte{opSuppress, opCov})
	if tally != (debtTally{copied: 1}) {
		t.Fatalf("one step out of a zero Σ: %+v, want the copy alone", tally)
	}
	lg := nz.Clone().(*LinearGaussian)
	lg.Step()
	if off := lg.Cov().At(0, 1); math.Float64bits(off) != 0 {
		t.Fatalf("Σ[0][1] after one step = %v (bits %#x), want +0", off, math.Float64bits(off))
	}
}

// One fixed schedule with the books worked by hand.
func TestOwedCovarianceCounts(t *testing.T) {
	base := scheduleBases(t)[1] // two attributes
	sched := []byte{
		opSuppress, opSuppress, opSuppress, // owes 3
		opPartial, 0b01, // settles them: the copy (fresh fit) and 2 runs; this epoch's makes 3
		opSuppress, opSuppress, // owes 2
		opFull, 200, // this epoch's makes 3, all dropped
		opSuppress,     // owes 1
		opHeartbeat, 0, // 2 dropped
		opCov,             // nothing owed
		opSuppress, opCov, // the copy again
		opSuppress, opClone, opSuppress, // owes 2; the clone is not the first replica
		opReject, 0, opReject, 1, opReject, 2, // still 2
		opMeanGiven, 0b10, // 2 runs
		opSuppress, opJSON, // 1 run
		opSuppress, opEvaluator, 0b11, // 1 run
	}
	want := debtTally{run: 3 + 2 + 1 + 1, copied: 2, dropped: 3 + 2}
	if got := runSchedule(t, base, sched); got != want {
		t.Fatalf("tally %+v, want %+v", got, want)
	}
}

// A tenant never heard from cannot owe more than the cap: Step settles at
// maxOwed, so the report that finally lands pays for fewer than that.
func TestOwedCovarianceIsCapped(t *testing.T) {
	base := scheduleBases(t)[1]
	ref := newEager(base)
	l := &lazy{LinearGaussian: base.Clone().(*LinearGaussian)}
	for i := 0; i < 10000; i++ {
		ref.step()
		l.step()
		if owed, _ := l.Debt(); owed >= maxOwed {
			t.Fatalf("step %d: %d transitions owed, cap %d", i, owed, maxOwed)
		}
		if err := l.condition(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	idx, vals := []int{1}, []float64{ref.mean()[1] + 0.5}
	before := l.debtTally
	if err := l.condition(idx, vals); err != nil {
		t.Fatal(err)
	}
	if err := ref.condition(idx, vals); err != nil {
		t.Fatal(err)
	}
	if paid := l.run + l.copied - before.run - before.copied; paid > maxOwed {
		t.Fatalf("the report ran %d transitions in one call, cap %d", paid, maxOwed)
	}
	if l.run+l.copied != 10000 || l.dropped != 0 {
		t.Fatalf("tally %+v over 10000 suppressed steps", l.debtTally)
	}
	if !sameBits(MeanOf(l), ref.mean()) || !sameMatBits(l.Cov(), ref.g.Cov()) {
		t.Fatal("the capped replica and the eager reference differ")
	}
}

// A refused full-width report leaves mean, Σ and debt alone: the next
// partial report produces the bits of a twin that never saw the bad calls.
func TestRefusedFullReportKeepsTheDebt(t *testing.T) {
	for _, base := range scheduleBases(t)[1:] {
		n := base.n
		got, twin := base.Clone().(*LinearGaussian), base.Clone().(*LinearGaussian)
		for i := 0; i < 3; i++ {
			got.Step()
			twin.Step()
		}
		all, good := subset(0xFF, n), MeanOf(got)
		nan := append([]float64(nil), good...)
		nan[n-1] = math.NaN()
		swapped := append([]int(nil), all...)
		swapped[0], swapped[1] = swapped[1], swapped[0]
		for name, c := range map[string]struct {
			idx  []int
			vals []float64
			is   error
		}{
			"NaN":          {all, nan, gauss.ErrNotFinite},
			"out of order": {swapped, good, nil},
			"wrong length": {all, good[:n-1], ErrDim},
		} {
			err := got.Condition(c.idx, c.vals)
			if err == nil || c.is != nil && !errors.Is(err, c.is) {
				t.Fatalf("n=%d %s: err = %v, want %v", n, name, err, c.is)
			}
			if owed, _ := got.Debt(); owed != 3 {
				t.Fatalf("n=%d %s: %d transitions owed after the refusal, want 3", n, name, owed)
			}
			// Σ is read off a clone, which settles its own copy of the debt.
			if !sameBits(MeanOf(got), MeanOf(twin)) || !sameMatBits(got.Clone().(*LinearGaussian).Cov(), twin.Clone().(*LinearGaussian).Cov()) {
				t.Fatalf("n=%d %s: the refused report moved the belief", n, name)
			}
		}
		idx, vals := []int{0}, []float64{good[0] + 0.25}
		if err := got.Condition(idx, vals); err != nil {
			t.Fatal(err)
		}
		if err := twin.Condition(idx, vals); err != nil {
			t.Fatal(err)
		}
		if !sameBits(MeanOf(got), MeanOf(twin)) || !sameMatBits(got.Cov(), twin.Cov()) {
			t.Fatalf("n=%d: the partial report after the refusals differs from the twin's", n)
		}
	}
}

func FuzzLinearGaussianSchedule(f *testing.F) {
	bases := scheduleBases(f)
	f.Add([]byte{1, opSuppress, opSuppress, opPartial, 1, opFull, 200, opCov, opClone, opSuppress, opJSON, opEvaluator, 3})
	f.Add([]byte{4, opSuppress, opCov, opHeartbeat, 0, opSuppress, opMeanGiven, 2, opReject, 1})
	f.Add([]byte{0, opFull, 9, opSuppress, opReject, 0, opPartial, 0, opCov})
	f.Add([]byte{3, opPartial, 0x55, opSuppress, opEvaluator, 0xF7, opClone, opSuppress, opFull, 1, opClone, opSuppress, opCov})
	long := make([]byte, 200) // 0 is opSuppress: through the cap
	long[0] = 2
	f.Add(append(long, opPartial, 5, opCov))
	f.Fuzz(func(t *testing.T, sched []byte) {
		if len(sched) == 0 {
			return
		}
		if len(sched) > 4096 {
			sched = sched[:4096]
		}
		runSchedule(t, bases[int(sched[0])%len(bases)], sched[1:])
	})
}
