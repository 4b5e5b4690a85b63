package plan

// This file is the planner's approximate tier: the quality knob that
// trades recall for latency under an explicit, guaranteed error bound.
// An APPROX delta query promises every answer within (1+delta) of exact
// (range answers are a superset whose members all lie within
// (1+delta)*eps; NN answers report distances within (1+delta) of the true
// k-th bests). The engine keeps the promise with the Lemma 1 lower bound
// alone: an NN walk's stop line shrinks by (1+delta), and every candidate
// still verifies exactly. The plan carries only the bound.

// ApproxInfo is the approximate tier of a plan: what the query is allowed
// to miss.
type ApproxInfo struct {
	// Delta is the guaranteed relative error bound: every answer distance
	// is within (1+Delta) of exact.
	Delta float64
}
