package model

// Data generators shared with the external loop tests (loop_test.go), which
// sit outside the package because the protocol kernel imports it.
var (
	DriftData  = driftData
	RegimeData = regimeData
)
