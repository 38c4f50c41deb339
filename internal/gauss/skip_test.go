package gauss

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ken/internal/mat"
)

// PredictCov and the rank-1 sweep skip the terms an exact zero makes. The
// oracle's reference Ken calls Predict and ObserveExact itself, so it
// cannot tell a wrong skip from a right one; these tests hold both kernels
// to the sequences they replaced, written out below, bit for bit.

// refPredictCov is PredictCov as the kernel sequence it fused:
// MulInto(A, Σ), MulInto(·, Aᵀ), AddInto(·, Q), Symmetrize.
func refPredictCov(t testing.TB, cov, a, q *mat.Dense) {
	n := cov.Rows()
	as, asat := mat.NewDense(n, n), mat.NewDense(n, n)
	if err := as.MulInto(a, cov); err != nil {
		t.Fatal(err)
	}
	if err := asat.MulInto(as, a.T()); err != nil {
		t.Fatal(err)
	}
	if err := cov.AddInto(asat, q); err != nil {
		t.Fatal(err)
	}
	cov.Symmetrize()
}

// refRank1 is the rank-1 sweep with nothing skipped: every (r, s) takes
// its (c_r·c_s)·d⁻¹, then row and column i are zeroed. A zero pivot whose
// row is zero only sets μ_i; any other pivot that is not positive and
// finite is refused with nothing touched.
func refRank1(cov *mat.Dense, mu []float64, i int, v float64) error {
	n := len(mu)
	d := cov.At(i, i)
	if d == 0 && slices.IndexFunc(cov.Row(i), func(x float64) bool { return x != 0 }) < 0 {
		mu[i] = v
		return nil
	}
	if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		return ErrDegenerate
	}
	c := cov.Row(i)
	invd := 1 / d
	w0 := (v - mu[i]) * invd
	for r := range mu {
		mu[r] += c[r] * w0
	}
	mu[i] = v
	for r := 0; r < n; r++ {
		for s := 0; s < n; s++ {
			cov.Set(r, s, cov.At(r, s)-(c[r]*c[s])*invd)
		}
	}
	for j := 0; j < n; j++ {
		cov.Set(i, j, 0)
		cov.Set(j, i, 0)
	}
	return nil
}

// refObserve is ObserveExact with refRank1 for the sweep: the same
// dispatch (nothing, everything, several staged), g untouched when a pivot
// is refused.
func refObserve(g *Gaussian, idx []int, vals []float64) error {
	n := len(g.mean)
	switch m := len(idx); {
	case m == 0:
		return nil
	case m == n:
		copy(g.mean, vals)
		g.cov.ReuseAs(n, n)
		return nil
	}
	cov, mu := g.cov.Clone(), append([]float64(nil), g.mean...)
	for k, i := range idx {
		if err := refRank1(cov, mu, i, vals[k]); err != nil {
			return err
		}
	}
	g.cov, g.mean = cov, mu
	return nil
}

// byteSrc hands out a fuzz input a byte at a time, then zeros.
type byteSrc struct {
	b []byte
	i int
}

func (s *byteSrc) next() byte {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return s.b[s.i-1]
}

// value decodes a byte into +0, −0 or a finite value in [−4, 4).
func (s *byteSrc) value() float64 {
	switch b := s.next(); {
	case b%7 == 0:
		return 0
	case b%7 == 1:
		return math.Copysign(0, -1)
	default:
		return float64(int8(b)) / 32
	}
}

// mask decodes two bytes into a set of attributes below 12.
func (s *byteSrc) mask() uint16 { return uint16(s.next()) | uint16(s.next())<<8 }

// kernelCase decodes a belief and its transition. Σ = B·Bᵀ + I/2 over the
// live attributes, so the attributes in the dead mask have an all-zero row
// and column; flags then kill one more row alone (its column stays live)
// and one more column alone, and, when negZero, turn Σ's zeros into −0,
// which only PredictCov may see (New would canonicalise them). Flag 8
// plants −2⁻¹⁰⁷⁴ at Q_{0,n−1} and +0 at Q_{n−1,0}: where that pair of
// A·Σ·Aᵀ is zero, the sum a transition halves there is −2⁻¹⁰⁷⁴.
func kernelCase(s *byteSrc, negZero bool) (g *Gaussian, a, q *mat.Dense) {
	n := 1 + int(s.next())%12
	flags, dead := s.next(), s.mask()
	b := mat.NewDense(n, n)
	a, q = mat.NewDense(n, n), mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if dead>>i&1 == 0 {
				b.Set(i, j, s.value())
			}
			a.Set(i, j, s.value()/4)
		}
	}
	cov, _ := b.Mul(b.T())
	for i := 0; i < n; i++ {
		if dead>>i&1 == 0 {
			cov.Add(i, i, 0.5)
		}
		q.Set(i, i, 0.25+math.Abs(s.value()))
		for j := 0; j < i; j++ {
			v := s.value() / 16
			q.Set(i, j, v)
			q.Set(j, i, v)
		}
	}
	if flags&8 != 0 {
		q.Set(0, n-1, -math.SmallestNonzeroFloat64)
		q.Set(n-1, 0, 0)
	}
	if r := int(s.next()) % n; flags&1 != 0 {
		for j := 0; j < n; j++ {
			cov.Set(r, j, 0)
		}
	}
	if c := int(s.next()) % n; flags&2 != 0 {
		for i := 0; i < n; i++ {
			cov.Set(i, c, 0)
		}
	}
	mean := make([]float64, n)
	for i := range mean {
		mean[i] = s.value()
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := cov.At(i, j); isZero(v) {
				cov.Set(i, j, 0)
				if negZero && flags&4 != 0 {
					cov.Set(i, j, math.Copysign(0, -1))
				}
			}
		}
	}
	return &Gaussian{mean: mean, cov: cov}, a, q
}

// runKernels replays ops against g and a twin run on the references,
// failing on the first bit that differs: each op byte predicts (odd) or
// observes the attributes of the next two bytes' mask (even), at values
// decoded from the bytes after.
func runKernels(t testing.TB, g *Gaussian, a, q *mat.Dense, ops *byteSrc) {
	t.Helper()
	n := len(g.mean)
	ref, ws := g.Clone(), NewWorkspace(n)
	for step := 0; ops.i < len(ops.b) && step < 32; step++ {
		var what string
		if ops.next()%2 == 1 {
			what = "PredictCov"
			if err := g.PredictCov(a, nil, q, ws); err != nil {
				t.Fatal(err)
			}
			refPredictCov(t, ref.cov, a, q)
		} else {
			m := ops.mask()
			var idx []int
			var vals []float64
			for i := 0; i < n; i++ {
				if m>>i&1 == 1 {
					idx, vals = append(idx, i), append(vals, ops.value())
				}
			}
			what = fmt.Sprintf("ObserveExact(%v)", idx)
			// A refused pivot must be refused by both, ErrDegenerate, with
			// both beliefs left as they were: the comparison below holds it.
			err, rerr := g.ObserveExact(idx, vals, ws), refObserve(ref, idx, vals)
			if (err == nil) != (rerr == nil) || err != nil && !errors.Is(err, ErrDegenerate) {
				t.Fatalf("step %d: %s = %v, the reference %v", step, what, err, rerr)
			}
		}
		if got, want := beliefBits(g), beliefBits(ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d step %d: %s differs from the written-out reference\nkernel:\n%vreference:\n%v", n, step, what, g.cov, ref.cov)
		}
	}
}

// TestPredictCovSkipsOnlyZeros: dead rows and columns, together and alone
// (a dead row whose column is live, and the reverse), zeros and −0 in Σ, A
// and Q, n from 1 to 12 — the fused transition leaves every bit of the
// sequence it replaced.
func TestPredictCovSkipsOnlyZeros(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	for n := 1; n <= 12; n++ {
		for flags := byte(0); flags < 8; flags++ {
			buf := make([]byte, 4096)
			r.Read(buf)
			buf[0], buf[1] = byte(n-1), flags
			buf[2], buf[3] = byte(r.Intn(1<<min(n, 8))), byte(r.Intn(1<<max(n-8, 0)))
			g, a, q := kernelCase(&byteSrc{b: buf}, true)
			runKernels(t, g, a, q, &byteSrc{b: []byte{1, 1, 1}})
		}
	}
}

// TestObserveExactSkipsOnlyZeros: single and multi-attribute reports on
// beliefs with dead rows and columns, then predict/report cycles that make
// more of them, n from 1 to 12 — the sweep leaves every bit of the full one.
func TestObserveExactSkipsOnlyZeros(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	for n := 1; n <= 12; n++ {
		for flags := byte(0); flags < 4; flags++ {
			buf := make([]byte, 4096)
			r.Read(buf)
			buf[0], buf[1] = byte(n-1), flags
			buf[2], buf[3] = byte(r.Intn(1<<min(n, 8))), byte(r.Intn(1<<max(n-8, 0)))
			g, a, q := kernelCase(&byteSrc{b: buf}, false)
			ops := make([]byte, 0, 64)
			for range 8 {
				all := uint16(1)<<n - 1
				m := uint16(r.Intn(1<<n)) & all
				if r.Intn(3) == 0 {
					m = 1 << r.Intn(n) // the paper's common single report
				}
				ops = append(ops, 0, byte(m), byte(m>>8), byte(r.Intn(256)), byte(r.Intn(256)), 1)
			}
			runKernels(t, g, a, q, &byteSrc{b: ops})
		}
	}
}

// A Σ loaded from JSON may spell zeros −0. New turns them into +0, so the
// sweep that skips zero columns still matches the full one (−0 − (−0) is
// +0, which a skip would have left −0).
func TestNegativeZeroCovFromJSON(t *testing.T) {
	var cov mat.Dense
	if err := json.Unmarshal([]byte(`{"rows":[[2,-0,0.5],[-0,1,-0],[0.5,-0,3]]}`), &cov); err != nil {
		t.Fatal(err)
	}
	if !math.Signbit(cov.At(0, 1)) {
		t.Fatal("the JSON -0 did not arrive as −0")
	}
	g, err := New([]float64{1, math.Copysign(0, -1), 3}, &cov)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for _, v := range g.cov.Row(i) {
			if math.Signbit(v) && isZero(v) {
				t.Fatalf("New kept a −0 in Σ:\n%v", g.cov)
			}
		}
	}
	a := mat.NewDenseFrom([][]float64{{0.9, 0, 0.1}, {0, 0.8, 0}, {math.Copysign(0, -1), 0, 0.7}})
	q := mat.NewDenseFrom([][]float64{{0.1, 0, 0}, {0, 0.2, 0}, {0, 0, 0.3}})
	// Observe 0, whose column has a zero, then 1 with row and column 0
	// dead, predict, observe 0 and 2 together.
	runKernels(t, g, a, q, &byteSrc{b: []byte{0, 0b001, 0, 40, 0, 0b010, 0, 50, 1, 0, 0b101, 0, 60, 70}})
}

// halvingCase is n = 3 with Σ all zero (dead mask 0b111) and flag 8: a
// transition writes Σ = Sym(Q), whose (0, 2) pair sums to −2⁻¹⁰⁷⁴, with
// Q_01 = 0 and Q_21 < 0. Reporting attribute 1 then gives the full sweep a
// (c_0·c_2)/d = −0 to subtract at (0, 2), and the sweep skips that column:
// had the halving left −0 there, the full sweep would turn it into +0 and
// the sweep that skips would keep it.
var halvingCase = []byte{
	2, 8, 0b111, 0, // n = 3, flag 8, every attribute dead
	40, 40, 40, 40, 40, 40, 40, 40, 40, // A
	40, 40, 0, 40, 40, 240, // Q_00, Q_11, Q_10 = 0, Q_22, Q_20, Q_21 = −1/32
	0, 0, // no extra dead row or column
	40, 40, 40, // μ
	1,               // PredictCov
	0, 0b010, 0, 40, // ObserveExact({1})
}

// TestHalvingLeavesNoNegativeZero: the transition's halving writes +0, not
// the −0 that round-half-even makes of −2⁻¹⁰⁷⁴/2, and the report after it
// matches the sweep that skips nothing.
func TestHalvingLeavesNoNegativeZero(t *testing.T) {
	g, a, q := kernelCase(&byteSrc{b: halvingCase}, false)
	if err := g.PredictCov(a, nil, q, NewWorkspace(3)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for _, v := range g.cov.Row(i) {
			if isZero(v) && math.Signbit(v) {
				t.Fatalf("PredictCov wrote −0:\n%v", g.cov)
			}
		}
	}
	s := &byteSrc{b: halvingCase}
	g, a, q = kernelCase(s, false)
	runKernels(t, g, a, q, &byteSrc{b: halvingCase[s.i:]})
}

// FuzzCovKernels decodes a belief, a transition and a schedule of
// predictions and reports from bytes and holds PredictCov and ObserveExact
// to the written-out references.
func FuzzCovKernels(f *testing.F) {
	f.Add([]byte{7, 3, 0b101, 0, 9, 200, 17, 33, 1, 0, 0b11, 0, 5, 6, 1, 0, 1, 0, 7})
	f.Add([]byte{0, 0, 0, 0, 1, 1})
	f.Add([]byte{11, 7, 0xFF, 0x0F, 3, 5, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(halvingCase)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		s := &byteSrc{b: data}
		g, a, q := kernelCase(s, false)
		runKernels(t, g, a, q, &byteSrc{b: data[s.i:]})
	})
}
