package deploy

import (
	"reflect"
	"testing"

	"ken/internal/stream"
	"ken/internal/trace"
)

func TestBuildDefaults(t *testing.T) {
	dep, err := Build(Params{})
	if err != nil {
		t.Fatal(err)
	}
	if dep.N != 11 {
		t.Fatalf("garden N = %d", dep.N)
	}
	if len(dep.Test) != 500 {
		t.Fatalf("test steps = %d", len(dep.Test))
	}
	if err := dep.Partition.Validate(dep.N); err != nil {
		t.Fatal(err)
	}
	if dep.Partition.MaxCliqueSize() > 2 {
		t.Fatalf("default K=2 violated: %s", dep.Partition)
	}
}

func TestBuildUnknownDataset(t *testing.T) {
	if _, err := Build(Params{Dataset: "mars"}); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestBuildDeterministicAcrossProcesses(t *testing.T) {
	// The property the two binaries rely on: identical parameters yield
	// identical partitions and lock-stepped replicas.
	p := Params{Dataset: "garden", Seed: 9, TrainSteps: 100, TestSteps: 150, K: 3}
	a, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Partition.String() != b.Partition.String() {
		t.Fatalf("partitions differ: %s vs %s", a.Partition, b.Partition)
	}
	src, err := stream.NewSource(a.Config)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := stream.NewReplica(b.Config) // built from the "other process"
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range a.Test {
		f, err := src.Collect(row)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Apply(f); err != nil {
			t.Fatal(err)
		}
		est := sink.Answer().Estimates
		for i := range row {
			if d := est[i] - row[i]; d > 0.5+1e-9 || d < -0.5-1e-9 {
				t.Fatalf("cross-process replicas violated ε: %v vs %v", est[i], row[i])
			}
		}
	}
}

func TestBuildEpsilonOverride(t *testing.T) {
	dep, err := Build(Params{Epsilon: 2.0, TestSteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range dep.Config.Eps {
		if e != 2.0 {
			t.Fatalf("eps = %v, want override 2.0", e)
		}
	}
}

// TestBuildSplitMatchesHandSplit: the deployment's Train/Test/Eps are the
// rows[:train] / rows[train:] / 0.5-per-node block Build used to write out,
// now obtained from trace.LoadExperiment.
func TestBuildSplitMatchesHandSplit(t *testing.T) {
	dep, err := Build(Params{TestSteps: 50})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.GenerateGarden(1, 150)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tr.Rows(trace.Temperature)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]float64, 11)
	for i := range eps {
		eps[i] = 0.5
	}
	if !reflect.DeepEqual(dep.Config.Train, rows[:100]) || !reflect.DeepEqual(dep.Test, rows[100:]) || !reflect.DeepEqual(dep.Config.Eps, eps) {
		t.Fatal("Build's split differs from the hand-written one")
	}
}
