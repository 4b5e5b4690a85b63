package plan

import "fmt"

// This file is the planner's approximate tier: the quality knob that
// trades recall for latency under an explicit, guaranteed error bound.
// An APPROX delta query promises every answer within (1+delta) of exact
// (range answers are a superset whose members all lie within
// (1+delta)*eps; NN answers report distances within (1+delta) of the true
// k-th bests). The engine enforces the guarantee with Lemma 1 lower
// bounds plus a residual-energy upper bound evaluated at multi-resolution
// ladder rungs; the planner's job here is to pick the first rung — how
// many energy-ordered coefficients a candidate walk accumulates before
// the first bound check — and to price the tier so AUTO decisions and
// EXPLAIN reflect it. Feedback is EWMA, like the rest of the tracker:
// realized bound tightness, verified terms per candidate (the rung
// signal), and the approximate traversal's candidate shrink.

// ApproxInfo is the approximate tier of a plan: what the query is allowed
// to miss, where the verification ladder starts, and what the planner
// expects the tier to buy.
type ApproxInfo struct {
	// Delta is the guaranteed relative error bound: every answer distance
	// is within (1+Delta) of exact.
	Delta float64
	// Rung is the planner's estimate of the accepting ladder rung, in
	// energy-ordered coefficients — the checkpoint where the residual
	// bound is expected to close (the ladder itself checks every
	// power-of-two rung from the bottom). 0 when the execution verifies
	// exactly (warped queries).
	Rung int
	// EstSpeedup is the planner's estimated verification speedup over the
	// exact tier (full-length walks divided by expected resolved terms).
	EstSpeedup float64
	// Tightness is the tracker's EWMA of realized bound tightness for
	// this query kind (LB/UB at accept time, 1 = the bound closed
	// exactly); 0 before any approximate feedback.
	Tightness float64
}

// minRung is the smallest rung estimate: below ~8 coefficients the
// residual-energy bound is too loose to ever accept.
const minRung = 8

// approxRung estimates the accepting rung for a query of the given
// spectrum length: the power of two closest above the tracker's EWMA of
// terms needed to resolve a candidate, or length/8 cold.
func approxRung(kind string, length int, t *Tracker) int {
	if length <= 0 {
		return 0
	}
	target := float64(length) / 8
	if t != nil {
		if terms, ok := t.approxTerms(kind); ok && terms > 0 {
			target = terms
		}
	}
	r := minRung
	for float64(r) < target && r < length {
		r <<= 1
	}
	if r > length {
		r = length
	}
	return r
}

// AttachApprox prices the approximate tier for a built plan: it
// estimates the accepting ladder rung from measured resolve depths,
// estimates the speedup, attaches the ApproxInfo, and annotates the
// plan's reason. length is the verification spectrum length (0 for
// warped queries, which verify exactly — the tier then only relaxes the
// traversal bound).
func AttachApprox(pl *Plan, delta float64, length int, t *Tracker) {
	if pl == nil || delta <= 0 {
		return
	}
	ai := &ApproxInfo{Delta: delta, Rung: approxRung(approxKind(pl), length, t)}
	if t != nil {
		if tight, terms, ok := t.approxModel(approxKind(pl)); ok {
			ai.Tightness = tight
			if terms >= 1 && length > 0 {
				ai.EstSpeedup = float64(length) / terms
			}
		}
	}
	if ai.EstSpeedup == 0 && length > 0 && ai.Rung > 0 {
		ai.EstSpeedup = float64(length) / float64(ai.Rung)
	}
	if ai.EstSpeedup < 1 {
		ai.EstSpeedup = 1
	}
	pl.Approx = ai
	if ai.Rung > 0 {
		pl.Reason += fmt.Sprintf("; approx delta=%g rung=%d (est %.1fx verification)", delta, ai.Rung, ai.EstSpeedup)
	} else {
		pl.Reason += fmt.Sprintf("; approx delta=%g (traversal bound only)", delta)
	}
}

// approxKind normalizes a plan's kind for approximate feedback:
// range-shaped and NN-shaped tiers calibrate separately.
func approxKind(pl *Plan) string {
	if pl.Kind == "nn" {
		return "nn"
	}
	return "range"
}

// ObserveApprox feeds one approximate execution back: the realized mean
// bound tightness (LB/UB at accept, 1 when nothing early-accepted), the
// verified terms per candidate (the rung signal), and — for indexed NN —
// the candidate and node fractions of the relaxed traversal.
func (t *Tracker) ObserveApprox(qkind string, tightness, termsPerCand float64, candidates, nodes, series int) {
	if t == nil || series <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := float64(series)
	if qkind == "nn" {
		t.apxNNTight = ewma(t.apxNNTight, tightness, t.apxNNSamples)
		t.apxNNTerms = ewma(t.apxNNTerms, termsPerCand, t.apxNNSamples)
		t.apxNNCandFrac = ewma(t.apxNNCandFrac, float64(candidates)/n, t.apxNNSamples)
		t.apxNNNodeFrac = ewma(t.apxNNNodeFrac, float64(nodes)/n, t.apxNNSamples)
		t.apxNNSamples++
		return
	}
	t.apxRangeTight = ewma(t.apxRangeTight, tightness, t.apxRangeSamples)
	t.apxRangeTerms = ewma(t.apxRangeTerms, termsPerCand, t.apxRangeSamples)
	t.apxRangeSamples++
}

// approxModel returns the EWMA bound tightness and terms-per-candidate of
// approximate executions of the given kind.
func (t *Tracker) approxModel(qkind string) (tightness, termsPerCand float64, ok bool) {
	if t == nil {
		return 0, 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if qkind == "nn" {
		if t.apxNNSamples == 0 {
			return 0, 0, false
		}
		return t.apxNNTight, t.apxNNTerms, true
	}
	if t.apxRangeSamples == 0 {
		return 0, 0, false
	}
	return t.apxRangeTight, t.apxRangeTerms, true
}

// approxTerms is the rung signal alone.
func (t *Tracker) approxTerms(qkind string) (float64, bool) {
	_, terms, ok := t.approxModel(qkind)
	return terms, ok
}

// nnApproxModel returns the relaxed traversal's measured candidate and
// node fractions — what ChooseNN prices the index with when the query
// carries a delta.
func (t *Tracker) nnApproxModel() (candFrac, nodeFrac float64, ok bool) {
	if t == nil {
		return 0, 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.apxNNSamples == 0 {
		return 0, 0, false
	}
	return t.apxNNCandFrac, t.apxNNNodeFrac, true
}
