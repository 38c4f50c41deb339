// Package pull implements a BBQ-style pull-based query engine over the
// same probabilistic models Ken pushes with. The paper (§2) positions the
// two as complementary: Ken proactively pushes anomalies so the sink is
// never more than ε wrong; BBQ answers on-demand queries by *acquiring* the
// minimum set of readings needed to make the model confident enough.
//
// A value query asks for attribute values within ±ε with confidence at
// least δ. The engine computes per-attribute confidence from the model's
// posterior marginals; while any queried attribute falls short, it acquires
// the reading that most cheaply raises confidence (observing an attribute
// drives its own uncertainty to zero and, through spatial correlation,
// shrinks its neighbours'), conditions the model, and re-checks.
package pull

import (
	"errors"
	"fmt"
	"math"

	"ken/internal/mat"
	"ken/internal/model"
	"ken/internal/network"
	"ken/internal/obs"
)

// Source supplies ground-truth readings on demand — in a deployment this
// is the sensornet; in tests, the trace.
type Source interface {
	// Read acquires the current reading of the attribute.
	Read(attr int) (float64, error)
}

// SourceFunc adapts a function to Source.
type SourceFunc func(attr int) (float64, error)

// Read implements Source.
func (f SourceFunc) Read(attr int) (float64, error) { return f(attr) }

// ValueQuery asks for the listed attributes within ±Epsilon with
// per-attribute confidence at least Confidence.
type ValueQuery struct {
	Attrs      []int
	Epsilon    float64
	Confidence float64
}

// Answer is the engine's response.
type Answer struct {
	// Values holds the posterior means of the queried attributes, in query
	// order (acquired attributes are exact).
	Values []float64
	// Confidence holds P(|X − value| ≤ ε) per queried attribute.
	Confidence []float64
	// Acquired lists the attributes read from the network, in order.
	Acquired []int
	// Cost is the total acquisition communication cost (round trip per
	// reading when a topology is attached; one unit otherwise).
	Cost float64
}

// Engine evaluates pull queries against a LinearGaussian model replica.
type Engine struct {
	m   *model.LinearGaussian
	top *network.Topology // optional acquisition pricing

	// Observability handles (zero and no-op until Instrument is called).
	tracer        *obs.Tracer
	queries       int64
	querySpan     int64         // span id of the in-flight query, 0 when untraced
	mQueries      obs.Counter   // pull_queries_total
	mAcquisitions obs.Counter   // pull_acquisitions_total
	gCost         obs.Gauge     // pull_acquisition_cost_total
	hPerQuery     obs.Histogram // pull_acquisitions_per_query
}

// Instrument attaches metrics and pull-request event tracing to the
// engine. A nil observer leaves it unobserved (the default).
func (e *Engine) Instrument(ob *obs.Observer) {
	e.tracer = ob.Tracer()
	reg := ob.Registry()
	e.mQueries = reg.Counter("pull_queries_total")
	e.mAcquisitions = reg.Counter("pull_acquisitions_total")
	e.gCost = reg.Gauge("pull_acquisition_cost_total")
	e.hPerQuery = reg.Histogram("pull_acquisitions_per_query")
}

// observeAcquire records one on-demand reading acquisition, parented to
// the in-flight query's span so the auditor can group a query's
// acquisitions together.
func (e *Engine) observeAcquire(attr int, v, cost float64) {
	e.mAcquisitions.Inc()
	e.gCost.Add(cost)
	if e.tracer != nil {
		e.tracer.Emit(obs.Event{
			Type: obs.EvPull, Step: e.queries, Clique: -1, Node: attr,
			Values: []float64{v}, Parent: e.querySpan,
			Payload: &obs.Payload{Observed: []float64{v}, Bytes: obs.WireBytesPerValue},
		})
	}
}

// beginQuery counts the query and allocates its span id (0 when untraced).
func (e *Engine) beginQuery() {
	e.queries++
	e.mQueries.Inc()
	e.querySpan = e.tracer.NewSpanID()
}

// New builds an engine over the model. top may be nil (unit acquisition
// costs).
func New(m *model.LinearGaussian, top *network.Topology) (*Engine, error) {
	if m == nil {
		return nil, errors.New("pull: nil model")
	}
	if top != nil && top.N() != m.Dim() {
		return nil, fmt.Errorf("pull: topology has %d nodes, model %d", top.N(), m.Dim())
	}
	return &Engine{m: m, top: top}, nil
}

// Step advances the model one sampling period (uncertainty grows between
// queries, exactly as in BBQ's temporal model).
func (e *Engine) Step() { e.m.Step() }

// Condition folds externally learned values (e.g. Ken pushes in a combined
// push/pull deployment) into the replica: attribute idx[k] (strictly
// increasing) was observed at vals[k].
func (e *Engine) Condition(idx []int, vals []float64) error { return e.m.Condition(idx, vals) }

// confidence returns P(|X_i − μ_i| ≤ ε) under the marginal posterior.
func confidence(variance, eps float64) float64 {
	if variance <= 0 {
		return 1
	}
	return math.Erf(eps / math.Sqrt(2*variance))
}

// acquisitionCost prices reading one attribute: a round trip to the node.
func (e *Engine) acquisitionCost(attr int) float64 {
	if e.top == nil {
		return 1
	}
	return 2 * e.top.CommToBase(attr)
}

// Query answers a value query, acquiring readings as needed. The model is
// left conditioned on everything acquired (subsequent queries benefit).
func (e *Engine) Query(q ValueQuery, src Source) (*Answer, error) {
	if len(q.Attrs) == 0 {
		return nil, errors.New("pull: query has no attributes")
	}
	if q.Epsilon <= 0 {
		return nil, fmt.Errorf("pull: non-positive epsilon %v", q.Epsilon)
	}
	if q.Confidence <= 0 || q.Confidence >= 1 {
		return nil, fmt.Errorf("pull: confidence %v outside (0,1)", q.Confidence)
	}
	n := e.m.Dim()
	for _, a := range q.Attrs {
		if a < 0 || a >= n {
			return nil, fmt.Errorf("pull: attribute %d out of range %d", a, n)
		}
	}
	if src == nil {
		return nil, errors.New("pull: nil source")
	}
	e.beginQuery()

	ans := &Answer{}
	acquired := map[int]bool{}
	for {
		cov := e.m.Cov()
		worst, worstScore := -1, 0.0
		allOK := true
		for _, a := range q.Attrs {
			if acquired[a] {
				continue
			}
			c := confidence(cov.At(a, a), q.Epsilon)
			if c >= q.Confidence {
				continue
			}
			allOK = false
			// Greedy pick: the largest confidence deficit per unit
			// acquisition cost.
			score := (q.Confidence - c) / e.acquisitionCost(a)
			if worst < 0 || score > worstScore {
				worst, worstScore = a, score
			}
		}
		if allOK {
			break
		}
		v, err := src.Read(worst)
		if err != nil {
			return nil, fmt.Errorf("pull: acquiring attribute %d: %w", worst, err)
		}
		if err := e.m.Condition([]int{worst}, []float64{v}); err != nil {
			return nil, err
		}
		acquired[worst] = true
		ans.Acquired = append(ans.Acquired, worst)
		ans.Cost += e.acquisitionCost(worst)
		e.observeAcquire(worst, v, e.acquisitionCost(worst))
	}
	e.hPerQuery.Observe(float64(len(ans.Acquired)))

	mean := model.MeanOf(e.m)
	cov := e.m.Cov()
	ans.Values = make([]float64, len(q.Attrs))
	ans.Confidence = make([]float64, len(q.Attrs))
	for k, a := range q.Attrs {
		ans.Values[k] = mean[a]
		ans.Confidence[k] = confidence(cov.At(a, a), q.Epsilon)
	}
	return ans, nil
}

// AvgQuery asks for the average of the listed attributes within ±Epsilon
// with confidence at least Confidence — the aggregate query class BBQ
// optimises. Spatial correlation makes these dramatically cheaper than
// value queries: the posterior variance of an average shrinks with every
// acquired reading of any correlated attribute.
type AvgQuery struct {
	Attrs      []int
	Epsilon    float64
	Confidence float64
}

// AvgAnswer is the engine's aggregate response.
type AvgAnswer struct {
	Value      float64
	Confidence float64
	Acquired   []int
	Cost       float64
}

// avgVariance returns Var(mean of attrs) = wᵀΣw with w = 1/k on attrs.
func avgVariance(cov *mat.Dense, attrs []int) float64 {
	k := float64(len(attrs))
	v := 0.0
	for _, i := range attrs {
		for _, j := range attrs {
			v += cov.At(i, j)
		}
	}
	return v / (k * k)
}

// QueryAverage answers an aggregate query, acquiring readings until the
// average's posterior is confident enough. The model keeps everything
// acquired.
func (e *Engine) QueryAverage(q AvgQuery, src Source) (*AvgAnswer, error) {
	if len(q.Attrs) == 0 {
		return nil, errors.New("pull: average query has no attributes")
	}
	if q.Epsilon <= 0 {
		return nil, fmt.Errorf("pull: non-positive epsilon %v", q.Epsilon)
	}
	if q.Confidence <= 0 || q.Confidence >= 1 {
		return nil, fmt.Errorf("pull: confidence %v outside (0,1)", q.Confidence)
	}
	n := e.m.Dim()
	for _, a := range q.Attrs {
		if a < 0 || a >= n {
			return nil, fmt.Errorf("pull: attribute %d out of range %d", a, n)
		}
	}
	if src == nil {
		return nil, errors.New("pull: nil source")
	}
	e.beginQuery()

	ans := &AvgAnswer{}
	acquired := map[int]bool{}
	for {
		cov := e.m.Cov()
		if confidence(avgVariance(cov, q.Attrs), q.Epsilon) >= q.Confidence {
			break
		}
		// Acquire the attribute whose covariance with the query set is
		// largest per unit cost — observing it collapses the most
		// aggregate variance.
		best, bestScore := -1, 0.0
		for _, a := range q.Attrs {
			if acquired[a] {
				continue
			}
			contrib := 0.0
			for _, j := range q.Attrs {
				contrib += cov.At(a, j)
			}
			if score := contrib / e.acquisitionCost(a); best < 0 || score > bestScore {
				best, bestScore = a, score
			}
		}
		if best < 0 {
			// Everything acquired and still unconfident: the average of
			// exact readings is exact — numerically this cannot persist,
			// but guard against an infinite loop.
			break
		}
		v, err := src.Read(best)
		if err != nil {
			return nil, fmt.Errorf("pull: acquiring attribute %d: %w", best, err)
		}
		if err := e.m.Condition([]int{best}, []float64{v}); err != nil {
			return nil, err
		}
		acquired[best] = true
		ans.Acquired = append(ans.Acquired, best)
		ans.Cost += e.acquisitionCost(best)
		e.observeAcquire(best, v, e.acquisitionCost(best))
	}
	e.hPerQuery.Observe(float64(len(ans.Acquired)))

	mean := model.MeanOf(e.m)
	cov := e.m.Cov()
	s := 0.0
	for _, a := range q.Attrs {
		s += mean[a]
	}
	ans.Value = s / float64(len(q.Attrs))
	ans.Confidence = confidence(avgVariance(cov, q.Attrs), q.Epsilon)
	return ans, nil
}
