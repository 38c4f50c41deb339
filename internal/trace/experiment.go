package trace

import (
	"errors"
	"fmt"
)

// ErrUnknownDataset is returned for a dataset name other than "garden" or
// "lab".
var ErrUnknownDataset = errors.New("trace: unknown dataset")

// GenerateNamed generates the synthetic deployment the binaries' -dataset
// flags name: "garden" or "lab".
func GenerateNamed(name string, seed int64, steps int) (*Trace, error) {
	switch name {
	case "garden":
		return GenerateGarden(seed, steps)
	case "lab":
		return GenerateLab(seed, steps)
	default:
		return nil, fmt.Errorf("%w %q (garden or lab)", ErrUnknownDataset, name)
	}
}

// Experiment is the paper's evaluation setup (§5.1) cut from one trace: the
// temperature rows split into the model-learning prefix and the test
// window, and the per-node error bounds. Train and Test share the trace's
// row storage.
type Experiment struct {
	Train, Test [][]float64
	Eps         []float64
}

// Experiment splits the temperature rows after trainSteps, which must leave
// both sides non-empty. eps overrides the attribute's default bound when
// positive.
func (tr *Trace) Experiment(trainSteps int, eps float64) (Experiment, error) {
	rows, err := tr.Rows(Temperature)
	if err != nil {
		return Experiment{}, err
	}
	if trainSteps <= 0 || trainSteps >= len(rows) {
		return Experiment{}, fmt.Errorf("%w: %d training steps of %d", ErrSplit, trainSteps, len(rows))
	}
	bound := Temperature.DefaultEpsilon()
	if eps > 0 {
		bound = eps
	}
	bounds := make([]float64, tr.Deployment.N())
	for i := range bounds {
		bounds[i] = bound
	}
	return Experiment{Train: rows[:trainSteps], Test: rows[trainSteps:], Eps: bounds}, nil
}

// LoadExperiment generates the named dataset with trainSteps+testSteps rows
// and splits it.
func LoadExperiment(name string, seed int64, trainSteps, testSteps int, eps float64) (Experiment, error) {
	tr, err := GenerateNamed(name, seed, trainSteps+testSteps)
	if err != nil {
		return Experiment{}, err
	}
	return tr.Experiment(trainSteps, eps)
}
