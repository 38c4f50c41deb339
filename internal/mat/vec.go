package mat

import "fmt"

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

// Select returns the elements of a at the given indices, in order.
func Select(a []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = a[i]
	}
	return out
}

// SelectCols returns the rows restricted to the given columns, in order:
// Select of every row, made in one slab, each row capped at its own length
// so an append to one cannot write into the next.
func SelectCols(rows [][]float64, cols []int) [][]float64 {
	k := len(cols)
	flat := make([]float64, len(rows)*k)
	out := make([][]float64, len(rows))
	for t, row := range rows {
		r := flat[t*k : (t+1)*k : (t+1)*k]
		for j, c := range cols {
			r[j] = row[c]
		}
		out[t] = r
	}
	return out
}
