package plan

// This file is the planner's approximate tier: the quality knob that
// trades recall for latency under an explicit, guaranteed error bound.
// An APPROX delta query promises every answer within (1+delta) of exact
// (range answers are a superset whose members all lie within
// (1+delta)*eps; NN answers report distances within (1+delta) of the true
// k-th bests). The engine enforces the guarantee with Lemma 1 lower
// bounds plus a residual-energy upper bound evaluated at multi-resolution
// ladder rungs, always starting from the lowest. The plan carries only
// the bound: what the tier actually did — early accepts and their bound
// tightness — is the execution's to report, not the planner's to forecast.

// ApproxInfo is the approximate tier of a plan: what the query is allowed
// to miss.
type ApproxInfo struct {
	// Delta is the guaranteed relative error bound: every answer distance
	// is within (1+Delta) of exact.
	Delta float64
}
