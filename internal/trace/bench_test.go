package trace

import (
	"fmt"
	"testing"
)

// BenchmarkLoadExperiment times the evaluation set-up's trace: Lab at the
// replay benchmark's 100 + 20 000 rows, and Lab's generator config on 16×16
// and 32×32 grids at 1 000 + 500 rows, where the O(n²) spatial field of
// every step dominates.
func BenchmarkLoadExperiment(b *testing.B) {
	b.Run("lab/rows=20100", func(b *testing.B) {
		for range b.N {
			if _, err := LoadExperiment("lab", 1, 100, 20000, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, side := range []int{16, 32} {
		b.Run(fmt.Sprintf("grid%d/rows=1500", side), func(b *testing.B) {
			d := GridDeployment(side)
			for range b.N {
				if _, err := loadExperiment(d, LabConfig(1, 1500), 1000, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
