package mat

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. It panics on length mismatch,
// matching the convention of builtin copy-style helpers used pervasively in
// hot paths where lengths are established by construction.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot len %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i, ai := range a {
		s += ai * b[i]
	}
	return s
}

// AddVec returns a + b as a new vector.
func AddVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: AddVec len %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// SubVec returns a - b as a new vector.
func SubVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: SubVec len %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// ScaleVec returns s·a as a new vector.
func ScaleVec(s float64, a []float64) []float64 {
	out := make([]float64, len(a))
	for i, ai := range a {
		out[i] = s * ai
	}
	return out
}

// Norm2 returns the Euclidean norm of a.
func Norm2(a []float64) float64 {
	s := 0.0
	for _, ai := range a {
		s += ai * ai
	}
	return math.Sqrt(s)
}

// NormInf returns the max-absolute-value norm of a.
func NormInf(a []float64) float64 {
	max := 0.0
	for _, ai := range a {
		if v := math.Abs(ai); v > max {
			max = v
		}
	}
	return max
}

// Mean returns the arithmetic mean of a, or 0 for an empty slice.
func Mean(a []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	s := 0.0
	for _, ai := range a {
		s += ai
	}
	return s / float64(len(a))
}

// Variance returns the unbiased sample variance of a, or 0 when len(a) < 2.
func Variance(a []float64) float64 {
	if len(a) < 2 {
		return 0
	}
	m := Mean(a)
	s := 0.0
	for _, ai := range a {
		d := ai - m
		s += d * d
	}
	return s / float64(len(a)-1)
}

// Select returns the elements of a at the given indices, in order.
func Select(a []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = a[i]
	}
	return out
}
