package engine

// Test-only exports for tpch_test.go, which plans proxy-rewritten
// statements and therefore lives in package engine_test (internal/proxy
// imports this package).
var (
	PlanSig         = planSig
	FilterOnJoin    = filterOnJoin
	RequireSameRows = requireSameRows
)
