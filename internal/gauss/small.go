package gauss

// Small forms. Greedy-k builds its partitions from small cliques, and a
// replica runs PredictMean, PredictCov and the rank-1 sweep once per clique
// and epoch, so at one or two attributes the generic loops' fixed cost (the
// live-set scan, packing, loop set-up) outweighs their arithmetic. The forms
// below write the 1×1 and 2×2 cases out. Each runs exactly the generic
// loop's floating-point operations, in the same order:
//
//   - every sum starts from +0;
//   - terms are added in ascending index as separate s += x*y statements,
//     the loops' statement shape, so a fused multiply-add applies to both
//     alike;
//   - a zero entry of A is skipped in A·Σ, as MulInto skips it;
//   - each off-diagonal pair is ((s+q_ij)+(r+q_ji))/2 + 0.
//
// They keep no live set: by the skip rule (see PredictCov) the terms the
// generic loop leaves out are exact ±0 products, whose addition to a sum
// that started from +0 changes no bit. So the forms answer to the same
// written-out references as the generic kernels, bit for bit.

// predictMeanSmall is μ ← A·μ for n = 1 or 2, a the row-major n×n A:
// MulVecInto's sums, which skip nothing.
func predictMeanSmall(a, mu []float64) {
	if len(mu) == 1 {
		var s float64
		s += a[0] * mu[0]
		mu[0] = s
		return
	}
	m0, m1 := mu[0], mu[1]
	var s0, s1 float64
	s0 += a[0] * m0
	s0 += a[1] * m1
	s1 += a[2] * m0
	s1 += a[3] * m1
	mu[0], mu[1] = s0, s1
}

// predictCovSmall is Σ ← Sym(A·Σ·Aᵀ + Q) for n = 1 or 2, each matrix
// row-major n×n: T = A·Σ with A's zeros skipped, then each Σ′_ij =
// Σ_c T_ic·A_jc + Q_ij, the pair symmetrised as it is made.
func predictCovSmall(cov, a, q []float64) {
	if len(cov) == 1 {
		a00 := a[0]
		var t float64
		if !isZero(a00) {
			t += a00 * cov[0]
		}
		var d float64
		d += t * a00
		cov[0] = d + q[0]
		return
	}
	a00, a01, a10, a11 := a[0], a[1], a[2], a[3]
	s00, s01, s10, s11 := cov[0], cov[1], cov[2], cov[3]
	var t00, t01, t10, t11 float64
	if !isZero(a00) {
		t00 += a00 * s00
		t01 += a00 * s01
	}
	if !isZero(a01) {
		t00 += a01 * s10
		t01 += a01 * s11
	}
	if !isZero(a10) {
		t10 += a10 * s00
		t11 += a10 * s01
	}
	if !isZero(a11) {
		t10 += a11 * s10
		t11 += a11 * s11
	}
	var d0, d1, s, r float64
	d0 += t00 * a00
	d0 += t01 * a01
	d1 += t10 * a10
	d1 += t11 * a11
	s += t00 * a10
	s += t01 * a11
	r += t10 * a00
	r += t11 * a01
	v := ((s+q[1])+(r+q[2]))/2 + 0
	cov[0], cov[1], cov[2], cov[3] = d0+q[0], v, v, d1+q[3]
}

// rank1Condition2 is rank1Condition's sweep for n = 2, once its pivot
// d = Σ_ii has been taken: the other attribute j moves by c_j·w, its
// variance loses (c_j·c_j)·d⁻¹ unless c_j is zero, and row and column i
// are zeroed.
func rank1Condition2(cov, mu []float64, i int, v, d float64) {
	j := 1 - i
	cj := cov[2*i+j]
	invd := 1 / d
	w0 := (v - mu[i]) * invd
	mu[j] += cj * w0
	mu[i] = v
	if !isZero(cj) {
		cov[3*j] -= (cj * cj) * invd
	}
	cov[3*i], cov[2*i+j], cov[2*j+i] = 0, 0, 0
}
