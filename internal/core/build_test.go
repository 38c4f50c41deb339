package core

import (
	"context"
	"strings"
	"testing"

	"ken/internal/cliques"
	"ken/internal/mc"
	"ken/internal/model"
)

func registrySpec(t *testing.T) SchemeSpec {
	t.Helper()
	train, _, eps := gardenData(t, 4, 100, 50)
	return SchemeSpec{
		Train:  train,
		Eps:    eps,
		FitCfg: model.FitConfig{Period: 24},
		MC:     mc.Config{Trajectories: 2, Horizon: 12, Seed: 1},
	}
}

func TestBuildResolvesEveryBuiltin(t *testing.T) {
	spec := registrySpec(t)
	for _, tc := range []struct {
		scheme string
		name   string
	}{
		{"TinyDB", "TinyDB"},
		{"tinydb", "TinyDB"},
		{"ApproxCache", "ApC"},
		{"apc", "ApC"},
		{"Average", "Avg"},
		{"avg", "Avg"},
		{"DjC2", "DjC2"},
		{"djc2", "DjC2"},
	} {
		s := spec
		s.Scheme = tc.scheme
		got, err := Build(s)
		if err != nil {
			t.Fatalf("Build(%q): %v", tc.scheme, err)
		}
		if got.Name() != tc.name {
			t.Fatalf("Build(%q).Name() = %q, want %q", tc.scheme, got.Name(), tc.name)
		}
		if got.Dim() != 4 {
			t.Fatalf("Build(%q).Dim() = %d", tc.scheme, got.Dim())
		}
	}
}

func TestBuildKenSelectsPartition(t *testing.T) {
	spec := registrySpec(t)
	spec.Scheme = "ken"
	spec.K = 2
	s, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ken, ok := s.(*Ken)
	if !ok {
		t.Fatalf("Build(ken) returned %T", s)
	}
	p := ken.Partition()
	if p == nil {
		t.Fatal("no partition recorded")
	}
	if p.MaxCliqueSize() > 2 {
		t.Fatalf("max clique %d exceeds K=2", p.MaxCliqueSize())
	}
	if err := p.Validate(4); err != nil {
		t.Fatal(err)
	}
}

func TestBuildKenHonoursFixedPartition(t *testing.T) {
	spec := registrySpec(t)
	spec.Scheme = "Ken"
	spec.Partition = &cliques.Partition{Cliques: []cliques.Clique{
		{Members: []int{0, 1}, Root: 0},
		{Members: []int{2, 3}, Root: 2},
	}}
	s, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s.(*Ken).Partition() != spec.Partition {
		t.Fatal("fixed partition was replaced")
	}
}

func TestBuildKenLossyWrap(t *testing.T) {
	spec := registrySpec(t)
	spec.Scheme = "DjC1"
	spec.Lossy = &LossyConfig{LossRate: 0.1, HeartbeatEvery: 10, Seed: 3}
	s, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*LossyKen); !ok {
		t.Fatalf("Build with Lossy returned %T", s)
	}
	if !strings.HasSuffix(s.Name(), "-lossy") {
		t.Fatalf("name %q missing lossy suffix", s.Name())
	}
}

func TestBuildUnknownScheme(t *testing.T) {
	_, err := Build(SchemeSpec{Scheme: "nope"})
	if err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Fatalf("err = %v", err)
	}
}

func TestBuildKenNeedsPartitionOrK(t *testing.T) {
	spec := registrySpec(t)
	spec.Scheme = "ken"
	if _, err := Build(spec); err == nil {
		t.Fatal("expected error without Partition or K")
	}
}

func TestRunContextCancellation(t *testing.T) {
	s, err := NewTinyDB(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	test := [][]float64{{1, 2}, {3, 4}}
	if _, err := Run(ctx, s, test, RunOptions{}); !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("err = %v, want context cancellation", err)
	}
	// A nil context runs fine.
	res, err := Run(nil, s, test, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 2 {
		t.Fatalf("steps = %d", res.Steps)
	}
}
