package model

// Data generators shared with the external loop tests (loop_test.go), which
// sit outside the package because the protocol kernel imports it.
var (
	DriftData  = driftData
	RegimeData = regimeData
)

// Debt reports the covariance transitions lg owes and whether its Σ is the
// all-zero one whose next transition is a copy: what the differential tests
// count settled, copied and dropped transitions from.
func (lg *LinearGaussian) Debt() (owed int, zero bool) { return lg.owed, lg.zero }

// Phase reports the seasonal phase lg keeps beside its clock.
func (lg *LinearGaussian) Phase() int { return lg.phase }
