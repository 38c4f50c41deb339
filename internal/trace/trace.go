// Package trace provides sensor-network deployment descriptions and time
// series traces for Ken's evaluation.
//
// The paper evaluates on two real deployments whose raw traces are not
// available here: the Intel Research Lab ("Lab", 49 mica2 motes) and the UC
// Berkeley Botanical Garden ("Garden", 11 mica2 motes). This package
// substitutes synthetic generators (see generate.go) that reproduce the
// statistical structure the paper's conclusions rest on: diurnal cycles,
// distance-decaying spatial correlation, attribute cross-correlation
// (temperature/humidity/voltage) and, for Lab, abrupt HVAC disturbances.
//
// The generator draws every variate from one math/rand stream seeded by
// GenConfig.Seed, in one fixed order whatever rows it builds: per node the
// calibration offset, phase jitter and amplitude scale; each HVAC zone's
// first holding time; then per step the temperature field's n innovations,
// the humidity field's n, the holding times the step ends, and one voltage
// noise per node. LoadExperiment builds the temperature rows alone; it
// draws the same variates and skips only the other attributes' arithmetic,
// so its rows are GenerateNamed's temperature rows bit for bit. The terms
// that draw nothing — base, trend, diurnal swing and offset — may be
// computed beside the RNG loop, which then adds the rest of each reading in
// the same order.
package trace

import (
	"errors"
	"fmt"
	"math"
)

// Attribute identifies a sensed physical quantity.
type Attribute int

// The attributes studied in the paper (§5.1).
const (
	Temperature Attribute = iota
	Humidity
	Voltage
)

// Attributes lists all supported attributes in canonical order.
var Attributes = []Attribute{Temperature, Humidity, Voltage}

// String returns the attribute name.
func (a Attribute) String() string {
	switch a {
	case Temperature:
		return "temperature"
	case Humidity:
		return "humidity"
	case Voltage:
		return "voltage"
	default:
		return fmt.Sprintf("attribute(%d)", int(a))
	}
}

// DefaultEpsilon returns the paper's default error bound for the attribute:
// 0.5 °C for temperature, 2 % for humidity, 0.1 V for voltage (§5.1).
func (a Attribute) DefaultEpsilon() float64 {
	switch a {
	case Temperature:
		return 0.5
	case Humidity:
		return 2.0
	case Voltage:
		return 0.1
	default:
		return 0.5
	}
}

// Node is one sensor device with a planar position in metres.
type Node struct {
	ID   int
	X, Y float64
}

// Distance returns the Euclidean distance to other.
func (n Node) Distance(other Node) float64 {
	dx, dy := n.X-other.X, n.Y-other.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Deployment is a named set of sensor nodes.
type Deployment struct {
	Name  string
	Nodes []Node
}

// N returns the node count.
func (d *Deployment) N() int { return len(d.Nodes) }

// Trace holds a multi-attribute time series over a deployment.
// Data[attr][t][i] is the reading of node i at time step t.
type Trace struct {
	Deployment  *Deployment
	StepMinutes float64
	Data        map[Attribute][][]float64
}

// Steps returns the number of time steps (0 for an empty trace).
func (tr *Trace) Steps() int {
	for _, rows := range tr.Data {
		return len(rows)
	}
	return 0
}

// Rows returns the [t][node] matrix for an attribute.
func (tr *Trace) Rows(a Attribute) ([][]float64, error) {
	rows, ok := tr.Data[a]
	if !ok {
		return nil, fmt.Errorf("trace: deployment %q has no %v data", tr.Deployment.Name, a)
	}
	return rows, nil
}

// ErrSplit is returned when a train/test split point is out of range.
var ErrSplit = errors.New("trace: split point out of range")

// Column extracts the full time series of a single node for an attribute.
func (tr *Trace) Column(a Attribute, node int) ([]float64, error) {
	rows, err := tr.Rows(a)
	if err != nil {
		return nil, err
	}
	if node < 0 || node >= tr.Deployment.N() {
		return nil, fmt.Errorf("trace: node %d out of range %d", node, tr.Deployment.N())
	}
	out := make([]float64, len(rows))
	for t, row := range rows {
		out[t] = row[node]
	}
	return out, nil
}

// MultiAttr flattens chosen attributes of a single node into a [t][k]
// matrix, one column per attribute in the given order. This is the "multiple
// logical nodes with zero communication cost" view of §5.5.
func (tr *Trace) MultiAttr(node int, attrs []Attribute) ([][]float64, error) {
	if len(attrs) == 0 {
		return nil, errors.New("trace: MultiAttr needs at least one attribute")
	}
	cols := make([][]float64, len(attrs))
	for k, a := range attrs {
		c, err := tr.Column(a, node)
		if err != nil {
			return nil, err
		}
		cols[k] = c
	}
	steps := len(cols[0])
	out := make([][]float64, steps)
	for t := 0; t < steps; t++ {
		row := make([]float64, len(attrs))
		for k := range attrs {
			row[k] = cols[k][t]
		}
		out[t] = row
	}
	return out, nil
}

// InjectAnomaly adds delta to node's attribute readings on steps
// [from, to). Used by the anomaly/event-detection example to verify that
// Ken pushes unpredicted values immediately.
func (tr *Trace) InjectAnomaly(a Attribute, node, from, to int, delta float64) error {
	rows, err := tr.Rows(a)
	if err != nil {
		return err
	}
	if node < 0 || node >= tr.Deployment.N() {
		return fmt.Errorf("trace: node %d out of range %d", node, tr.Deployment.N())
	}
	if from < 0 || to > len(rows) || from >= to {
		return fmt.Errorf("trace: anomaly window [%d,%d) out of range %d", from, to, len(rows))
	}
	for t := from; t < to; t++ {
		rows[t][node] += delta
	}
	return nil
}
