package cliques

import (
	"fmt"
	"math"
	"math/bits"

	"ken/internal/network"
)

// maxExhaustiveN bounds the dynamic program: the subset tables are O(2^n)
// and the split enumeration O(3^n), so anything beyond this is hopeless
// ("prohibitively expensive except in simplest of sensor networks", §4.2).
const maxExhaustiveN = 20

// Exhaustive finds the optimal Disjoint-Cliques partition by the paper's
// dynamic program (Fig 5): for every attribute subset, the best solution is
// either the subset kept as a single clique or the best split into two
// complementary sub-solutions. maxCliqueSize limits the size of cliques
// considered as atoms (Exhaustive-k in Fig 11); pass top.N() (or any
// larger value) for the unrestricted optimum.
func Exhaustive(top *network.Topology, eval Evaluator, maxCliqueSize int) (*Partition, error) {
	n := top.N()
	if n > maxExhaustiveN {
		return nil, fmt.Errorf("cliques: exhaustive algorithm infeasible for n=%d (max %d)", n, maxExhaustiveN)
	}
	if maxCliqueSize < 1 {
		return nil, fmt.Errorf("cliques: max clique size %d < 1", maxCliqueSize)
	}
	size := 1 << n
	cost := make([]float64, size)
	// split[s] == 0 means subset s is kept whole as one clique; otherwise
	// it records one side of the best split.
	split := make([]int, size)
	asClique := make([]Clique, size)

	// Phase 1 — evaluate every admissible atomic clique concurrently; the
	// evaluations are independent Monte Carlo runs and dominate the cost
	// of the dynamic program.
	built := make([]bool, size)
	if err := buildAtoms(top, eval, maxCliqueSize, asClique, built); err != nil {
		return nil, err
	}

	// Phase 2 — the (sequential, cheap) subset dynamic program.
	for s := 1; s < size; s++ {
		cost[s] = math.Inf(1)
		if built[s] {
			cost[s] = asClique[s].Cost()
			split[s] = 0
		}
		// Enumerate splits s = c1 ⊎ c2 once each: force c1 to contain the
		// lowest set bit of s.
		low := s & -s
		for c1 := (s - 1) & s; c1 > 0; c1 = (c1 - 1) & s {
			if c1&low == 0 {
				continue
			}
			c2 := s &^ c1
			if c2 == 0 {
				continue
			}
			if c := cost[c1] + cost[c2]; c < cost[s] {
				cost[s] = c
				split[s] = c1
			}
		}
		if math.IsInf(cost[s], 1) {
			return nil, fmt.Errorf("cliques: no feasible cover for subset %b with max clique size %d", s, maxCliqueSize)
		}
	}

	p := &Partition{}
	if err := reconstruct(size-1, split, asClique, p); err != nil {
		return nil, err
	}
	return p, nil
}

// buildAtoms evaluates every subset of size <= maxCliqueSize as a clique,
// in parallel. Deterministic: each clique's Monte Carlo seed derives from
// its members, and results land in fixed slots.
func buildAtoms(top *network.Topology, eval Evaluator, maxCliqueSize int, asClique []Clique, built []bool) error {
	size := len(asClique)
	var masks []int
	for s := 1; s < size; s++ {
		if bits.OnesCount(uint(s)) <= maxCliqueSize {
			masks = append(masks, s)
		}
	}
	errs := make([]error, len(masks))
	forEach(len(masks), 0, func(i int) {
		s := masks[i]
		c, err := BuildClique(top, eval, bitsOf(s))
		if err != nil {
			errs[i] = err
			return
		}
		asClique[s] = c
		built[s] = true
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// reconstruct walks the split table, collecting atomic cliques.
func reconstruct(s int, split []int, asClique []Clique, p *Partition) error {
	if s == 0 {
		return nil
	}
	if split[s] == 0 {
		if asClique[s].Members == nil {
			return fmt.Errorf("cliques: internal error, missing clique for subset %b", s)
		}
		p.Cliques = append(p.Cliques, asClique[s])
		return nil
	}
	if err := reconstruct(split[s], split, asClique, p); err != nil {
		return err
	}
	return reconstruct(s&^split[s], split, asClique, p)
}

// bitsOf expands a bitmask into sorted indices.
func bitsOf(mask int) []int {
	out := make([]int, 0, bits.OnesCount(uint(mask)))
	for mask != 0 {
		low := mask & -mask
		out = append(out, bits.TrailingZeros(uint(low)))
		mask &^= low
	}
	return out
}
