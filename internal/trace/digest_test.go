package trace

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// TestGenerateBitsPinned pins the bits of the synthetic generator across
// commits. Garden and Lab, seeds 1–3, 2 000 steps: one FNV-64a digest of
// every attribute of GenerateNamed (in Attributes order) and one of
// LoadExperiment's Train+Test rows at 100 training steps. A change that
// means to move these bits says so and re-pins; one that claims the same
// bits — a faster kernel, rows that are never read left unbuilt — must pass
// unchanged. Pinned on amd64: math.Exp and math.Sin have per-architecture
// code, and arm64 may fuse a multiply-add.
func TestGenerateBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64; %s may fuse or round differently", runtime.GOARCH)
	}
	const steps, train = 2000, 100
	for _, tc := range []struct {
		name      string
		seed      int64
		gen, load uint64
	}{
		{"garden", 1, 0x1170a47b7cbc0e21, 0xfefad3534b62266d},
		{"garden", 2, 0x644b7dd2aa9100fc, 0x0b3fe8904ab1a0a5},
		{"garden", 3, 0x087349d52b6fb4c8, 0xd83d9d3a3f203abc},
		{"lab", 1, 0xb428aeb47d5b1ee3, 0x9e824e86c474f0dc},
		{"lab", 2, 0xe5d60c9ee84b7d51, 0x989c674a5a2fcd3d},
		{"lab", 3, 0xd35312f22a6edfb6, 0xbde7ab509784a5fd},
	} {
		t.Run(fmt.Sprint(tc.name, "/seed=", tc.seed), func(t *testing.T) {
			tr, err := GenerateNamed(tc.name, tc.seed, steps)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, a := range Attributes {
				rows, err := tr.Rows(a)
				if err != nil {
					t.Fatal(err)
				}
				writeRows(h, rows)
			}
			if got := h.Sum64(); got != tc.gen {
				t.Errorf("GenerateNamed digest %#016x, pinned %#016x", got, tc.gen)
			}
			exp, err := LoadExperiment(tc.name, tc.seed, train, steps-train, 0)
			if err != nil {
				t.Fatal(err)
			}
			h.Reset()
			writeRows(h, exp.Train)
			writeRows(h, exp.Test)
			if got := h.Sum64(); got != tc.load {
				t.Errorf("LoadExperiment digest %#016x, pinned %#016x", got, tc.load)
			}
		})
	}
}

// TestLoadExperimentIsGenerateTemperature holds LoadExperiment, which
// builds the temperature rows alone, to GenerateNamed's temperature rows
// bit for bit on every architecture: both draw the same variates in the same
// order.
func TestLoadExperimentIsGenerateTemperature(t *testing.T) {
	for _, name := range []string{"garden", "lab"} {
		for seed := int64(1); seed <= 3; seed++ {
			tr, err := GenerateNamed(name, seed, 700)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := tr.Rows(Temperature)
			if err != nil {
				t.Fatal(err)
			}
			exp, err := LoadExperiment(name, seed, 100, 600, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := append(append([][]float64(nil), exp.Train...), exp.Test...)
			if len(got) != len(rows) {
				t.Fatalf("%s seed %d: %d rows, want %d", name, seed, len(got), len(rows))
			}
			for s := range rows {
				for i, v := range rows[s] {
					if math.Float64bits(got[s][i]) != math.Float64bits(v) {
						t.Fatalf("%s seed %d: step %d node %d = %v, GenerateNamed has %v", name, seed, s, i, got[s][i], v)
					}
				}
			}
		}
	}
}

func writeRows(h hash.Hash, rows [][]float64) {
	var b [8]byte
	for _, row := range rows {
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
}
