package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"ken/internal/mat"
)

// GenConfig parameterises the synthetic deployment generator. The two
// preset configurations (LabConfig, GardenConfig) are tuned so that the
// generated data reproduces the qualitative contrasts the paper reports
// between the deployments: the Garden is smoother, more strongly spatially
// correlated, and free of human disturbances; the Lab is noisier, more
// weakly correlated, and punctuated by abrupt HVAC (air-conditioning)
// events ("human intervention ... results in this data being much harder to
// predict than the garden data", §5.4).
type GenConfig struct {
	Seed        int64
	Steps       int
	StepMinutes float64

	// Temperature model.
	TempBase       float64 // mean °C
	TempDiurnalAmp float64 // diurnal half-swing °C
	TempTrendAmp   float64 // slow multi-day drift amplitude °C
	TempNoiseSD    float64 // stationary noise std-dev °C

	// Humidity model (anti-correlated with temperature).
	HumBase         float64 // mean %RH
	HumTempCoupling float64 // %RH decrease per °C above base
	HumNoiseSD      float64 // %RH

	// Voltage model.
	VoltStart        float64 // initial battery volts
	VoltDrainPerStep float64 // volts lost per step
	VoltTempCoeff    float64 // volts per °C above base
	VoltNoiseSD      float64

	// Spatio-temporal noise field. The spatial kernel is a two-scale
	// mixture SpatialMix·exp(−d/SpatialScale) +
	// (1−SpatialMix)·exp(−d/SpatialScale2): a strong short-range component
	// (microclimate shared by neighbouring motes) plus a weaker long-range
	// one (weather shared by the whole deployment). SpatialMix 1 or
	// SpatialScale2 0 degrade to a single scale.
	SpatialScale  float64 // short correlation length ℓ₁ (metres)
	SpatialScale2 float64 // long correlation length ℓ₂ (metres)
	SpatialMix    float64 // weight of the short-range component in [0,1]
	ARCoeff       float64 // temporal AR(1) coefficient of the noise field
	NodeOffsetSD  float64 // per-node constant calibration offsets °C
	PhaseJitter   float64 // per-node diurnal phase jitter (fraction of a day)

	// HVAC disturbances (Lab only).
	HVAC            bool
	HVACAmp         float64 // °C drop while the AC runs
	HVACMeanOnMin   float64 // mean AC on-duration (minutes)
	HVACMeanOffMin  float64 // mean AC off-duration (minutes)
	HVACZones       int     // independent AC zones splitting nodes by x-position
	HVACResponseLag float64 // 0..1 smoothing of the temperature response per step
}

// GardenDeployment returns the 11-node Garden layout: a transect of motes a
// few metres apart, as in the Botanical Garden deployment.
func GardenDeployment() *Deployment {
	nodes := make([]Node, 11)
	for i := range nodes {
		// A gently curved transect, ~4 m spacing.
		nodes[i] = Node{ID: i, X: float64(i) * 4, Y: 2 * math.Sin(float64(i)/2)}
	}
	return &Deployment{Name: "garden", Nodes: nodes}
}

// LabDeployment returns the 49-node Lab layout: a 7×7 grid over a
// ~36 m × 30 m office floor, matching the Intel lab's mote count.
func LabDeployment() *Deployment {
	d := GridDeployment(7)
	d.Name = "lab"
	return d
}

// GridDeployment returns side×side motes on the Lab's 6 m × 5 m pitch,
// numbered row by row: the Lab layout at other sizes, for measuring what a
// deployment costs beyond 49 nodes. GridDeployment(7) has the Lab's nodes.
func GridDeployment(side int) *Deployment {
	nodes := make([]Node, 0, side*side)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			nodes = append(nodes, Node{ID: len(nodes), X: float64(c) * 6, Y: float64(r) * 5})
		}
	}
	return &Deployment{Name: fmt.Sprintf("grid%d", side), Nodes: nodes}
}

// GardenConfig returns the preset generator settings for the Garden
// deployment: steps hourly samples (the paper's evaluation granularity).
func GardenConfig(seed int64, steps int) GenConfig {
	return GenConfig{
		Seed:        seed,
		Steps:       steps,
		StepMinutes: 60,

		TempBase:       16,
		TempDiurnalAmp: 2.2,
		TempTrendAmp:   1.2,
		TempNoiseSD:    0.9,

		HumBase:         65,
		HumTempCoupling: 2.2,
		HumNoiseSD:      1.4,

		VoltStart:        3.0,
		VoltDrainPerStep: 2.0e-5,
		VoltTempCoeff:    0.004,
		VoltNoiseSD:      0.012,

		SpatialScale:  18, // strong microclimate correlation between neighbours
		SpatialScale2: 60,
		SpatialMix:    0.85,
		ARCoeff:       0.8,
		NodeOffsetSD:  0.35,
		PhaseJitter:   0.01,
	}
}

// LabConfig returns the preset generator settings for the Lab deployment.
func LabConfig(seed int64, steps int) GenConfig {
	return GenConfig{
		Seed:        seed,
		Steps:       steps,
		StepMinutes: 60,

		TempBase:       21,
		TempDiurnalAmp: 2.5,
		TempTrendAmp:   1,
		TempNoiseSD:    0.8,

		HumBase:         42,
		HumTempCoupling: 1.6,
		HumNoiseSD:      2.0,

		VoltStart:        3.0,
		VoltDrainPerStep: 2.5e-5,
		VoltTempCoeff:    0.004,
		VoltNoiseSD:      0.015,

		SpatialScale:  13, // correlation decays over a few desks
		SpatialScale2: 45,
		SpatialMix:    0.8,
		ARCoeff:       0.65,
		NodeOffsetSD:  0.6,
		PhaseJitter:   0.02,

		HVAC:            true,
		HVACAmp:         2.2,
		HVACMeanOnMin:   240,
		HVACMeanOffMin:  420,
		HVACZones:       2,
		HVACResponseLag: 0.5,
	}
}

// Generate synthesises a full multi-attribute trace for the deployment.
func Generate(d *Deployment, cfg GenConfig) (*Trace, error) {
	return generate(d, cfg, everyAttribute)
}

// attrSet is the set of attributes one generate call builds rows for.
type attrSet uint8

const (
	temperatureOnly attrSet = 1 << Temperature
	everyAttribute  attrSet = 1<<Temperature | 1<<Humidity | 1<<Voltage
)

func (s attrSet) has(a Attribute) bool { return s&(1<<a) != 0 }

// baseChunk is how many steps of RNG-free temperature the base worker hands
// the RNG loop at a time.
const baseChunk = 128

// generate builds the rows of the attributes in want, which holds
// Temperature: humidity and voltage are read off it. Every variate is drawn
// whatever want holds, in one fixed order (the package doc's contract), so
// a kept attribute's bits do not depend on what else is kept. An attribute
// left out costs its draws and nothing else.
func generate(d *Deployment, cfg GenConfig, want attrSet) (*Trace, error) {
	n := d.N()
	if n == 0 {
		return nil, fmt.Errorf("trace: deployment %q has no nodes", d.Name)
	}
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("trace: config requests %d steps", cfg.Steps)
	}
	if cfg.StepMinutes <= 0 {
		return nil, fmt.Errorf("trace: step duration %v minutes", cfg.StepMinutes)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Spatially correlated innovation factor: Cholesky of the two-scale
	// kernel.
	chol, err := spatialCholesky(d, cfg)
	if err != nil {
		return nil, err
	}

	// Per-node fixed calibration offsets and diurnal phase jitter.
	nb := nodeBase{offset: make([]float64, n), phase: make([]float64, n), ampScale: make([]float64, n)}
	for i := 0; i < n; i++ {
		nb.offset[i] = rng.NormFloat64() * cfg.NodeOffsetSD
		nb.phase[i] = rng.NormFloat64() * cfg.PhaseJitter
		nb.ampScale[i] = 1 + 0.08*rng.NormFloat64()
	}

	hvac := newHVACState(d, cfg, rng)

	data := map[Attribute][][]float64{}
	for _, a := range Attributes {
		if want.has(a) {
			data[a] = slabRows(cfg.Steps, n)
		}
	}
	temp, hum, volt := data[Temperature], data[Humidity], data[Voltage]

	// The RNG-free part of every temperature reading is filled in beside
	// the RNG loop, a chunk of steps at a time; ready carries how many
	// steps are done. It has room for every chunk's send, so the worker
	// never blocks and always runs to the end, whatever the loop does.
	ready := make(chan int, (cfg.Steps+baseChunk-1)/baseChunk)
	var worker sync.WaitGroup
	worker.Add(1)
	go func() {
		defer worker.Done()
		for from := 0; from < cfg.Steps; from += baseChunk {
			to := min(from+baseChunk, cfg.Steps)
			nb.fill(temp, from, to, cfg)
			ready <- to
		}
	}()
	defer worker.Wait()

	// AR(1) spatio-temporal noise fields for temperature and humidity.
	wTemp := make([]float64, n)
	wHum := make([]float64, n)
	z := make([]float64, n) // the innovations; L·z overwrites them
	hvacEffect := make([]float64, n)

	based := 0
	for t := 0; t < cfg.Steps; t++ {
		drawNormals(z, rng)
		advanceField(wTemp, z, cfg.ARCoeff, chol)
		drawNormals(z, rng)
		if hum != nil {
			advanceField(wHum, z, cfg.ARCoeff, chol)
		}
		hvac.advance(cfg, rng)

		if t == based {
			based = <-ready
		}
		rowT := temp[t]
		for i := range rowT {
			target := 0.0
			if cfg.HVAC {
				target = hvac.effect(i) * cfg.HVACAmp
			}
			// First-order response of room temperature to the AC state.
			hvacEffect[i] += (target - hvacEffect[i]) * cfg.HVACResponseLag
			rowT[i] = rowT[i] + cfg.TempNoiseSD*wTemp[i] + hvacEffect[i]
		}
		if hum != nil {
			rowH := hum[t]
			for i := range rowH {
				rowH[i] = cfg.HumBase - cfg.HumTempCoupling*(rowT[i]-cfg.TempBase) +
					cfg.HumNoiseSD*wHum[i]
			}
		}
		for i := range rowT {
			e := rng.NormFloat64()
			if volt != nil {
				volt[t][i] = cfg.VoltStart - cfg.VoltDrainPerStep*float64(t) +
					cfg.VoltTempCoeff*(rowT[i]-cfg.TempBase) +
					cfg.VoltNoiseSD*e
			}
		}
	}

	return &Trace{Deployment: d, StepMinutes: cfg.StepMinutes, Data: data}, nil
}

// slabRows returns steps rows of n zeros, views into one allocation.
func slabRows(steps, n int) [][]float64 {
	slab := make([]float64, steps*n)
	rows := make([][]float64, steps)
	for t := range rows {
		rows[t] = slab[t*n : (t+1)*n : (t+1)*n]
	}
	return rows
}

// nodeBase holds the per-node constants drawn before the RNG loop: the
// calibration offset and the diurnal phase jitter and amplitude scale.
type nodeBase struct {
	offset, phase, ampScale []float64
}

// fill writes the RNG-free part of temperature rows [from, to):
// ((TempBase + trend) + diurnal) + offset, the prefix of the reading's sum.
func (nb nodeBase) fill(temp [][]float64, from, to int, cfg GenConfig) {
	stepDays := cfg.StepMinutes / (24 * 60)
	for t := from; t < to; t++ {
		day := float64(t) * stepDays
		trend := cfg.TempTrendAmp * math.Sin(2*math.Pi*day/5.3) // slow weather drift
		row := temp[t]
		for i := range row {
			diurnal := cfg.TempDiurnalAmp * nb.ampScale[i] *
				math.Sin(2*math.Pi*(day+nb.phase[i])-math.Pi/2) // coldest pre-dawn
			row[i] = cfg.TempBase + trend + diurnal + nb.offset[i]
		}
	}
}

// spatialCholesky factors the deployment's two-scale spatial kernel.
func spatialCholesky(d *Deployment, cfg GenConfig) (*mat.Cholesky, error) {
	n := d.N()
	mix := cfg.SpatialMix
	if cfg.SpatialScale2 <= 0 {
		mix = 1
	}
	if mix < 0 || mix > 1 {
		return nil, fmt.Errorf("trace: spatial mix %v outside [0,1]", mix)
	}
	kernel := func(dist float64) float64 {
		v := 0.0
		if cfg.SpatialScale > 0 {
			v += mix * math.Exp(-dist/cfg.SpatialScale)
		} else if dist == 0 {
			v += mix
		}
		if cfg.SpatialScale2 > 0 {
			v += (1 - mix) * math.Exp(-dist/cfg.SpatialScale2)
		} else if dist == 0 {
			v += 1 - mix
		}
		return v
	}
	k := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				k.Set(i, j, 1)
				continue
			}
			k.Set(i, j, kernel(d.Nodes[i].Distance(d.Nodes[j])))
		}
	}
	ch, err := mat.NewCholesky(k)
	if err != nil {
		return nil, fmt.Errorf("trace: spatial kernel not PD: %w", err)
	}
	return ch, nil
}

// drawNormals fills z with standard normal variates.
func drawNormals(z []float64, rng *rand.Rand) {
	for i := range z {
		z[i] = rng.NormFloat64()
	}
}

// advanceField steps a unit-variance AR(1) field with spatially correlated
// innovations: w ← ρ·w + √(1−ρ²)·L·z. z holds the standard normal draws;
// L·z overwrites it in place.
func advanceField(w, z []float64, rho float64, chol *mat.Cholesky) {
	if err := chol.MulLVecInto(z, z); err != nil {
		// Dimensions are fixed by construction; this cannot happen.
		panic(err)
	}
	s := math.Sqrt(1 - rho*rho)
	for i := range w {
		w[i] = rho*w[i] + s*z[i]
	}
}

// hvacState models per-zone air-conditioning on/off processes with
// exponential holding times.
type hvacState struct {
	zone     []int // node → zone
	on       []bool
	minsLeft []float64
}

func newHVACState(d *Deployment, cfg GenConfig, rng *rand.Rand) *hvacState {
	if !cfg.HVAC || cfg.HVACZones <= 0 {
		return &hvacState{}
	}
	// Split zones by x-position quantiles.
	minX, maxX := math.Inf(1), math.Inf(-1)
	for _, nd := range d.Nodes {
		minX = math.Min(minX, nd.X)
		maxX = math.Max(maxX, nd.X)
	}
	span := maxX - minX
	if span == 0 {
		span = 1
	}
	h := &hvacState{
		zone:     make([]int, d.N()),
		on:       make([]bool, cfg.HVACZones),
		minsLeft: make([]float64, cfg.HVACZones),
	}
	for i, nd := range d.Nodes {
		z := int((nd.X - minX) / span * float64(cfg.HVACZones))
		if z >= cfg.HVACZones {
			z = cfg.HVACZones - 1
		}
		h.zone[i] = z
	}
	for z := range h.on {
		h.minsLeft[z] = rng.ExpFloat64() * cfg.HVACMeanOffMin
	}
	return h
}

// advance moves every zone's on/off process forward one step.
func (h *hvacState) advance(cfg GenConfig, rng *rand.Rand) {
	if len(h.on) == 0 {
		return
	}
	for z := range h.on {
		h.minsLeft[z] -= cfg.StepMinutes
		for h.minsLeft[z] <= 0 {
			h.on[z] = !h.on[z]
			mean := cfg.HVACMeanOffMin
			if h.on[z] {
				mean = cfg.HVACMeanOnMin
			}
			h.minsLeft[z] += rng.ExpFloat64() * mean
		}
	}
}

// effect returns the steady-state temperature offset the AC imposes on node
// i's zone right now; the caller applies a first-order lag.
func (h *hvacState) effect(i int) float64 {
	if len(h.on) == 0 {
		return 0
	}
	if h.on[h.zone[i]] {
		return -1
	}
	return 0
}

// GenerateGarden is a convenience wrapper: Garden deployment + preset config.
func GenerateGarden(seed int64, steps int) (*Trace, error) {
	return Generate(GardenDeployment(), GardenConfig(seed, steps))
}

// GenerateLab is a convenience wrapper: Lab deployment + preset config.
func GenerateLab(seed int64, steps int) (*Trace, error) {
	return Generate(LabDeployment(), LabConfig(seed, steps))
}
