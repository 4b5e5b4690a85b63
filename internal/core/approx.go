package core

import (
	"math"
	"math/bits"

	"repro/internal/plan"
	"repro/internal/relation"
)

// Approximate query tier: early-stopping search under a guaranteed
// (1+delta) error bound, built from two sound ingredients.
//
// Lower bound (Lemma 1 / Parseval): the partial sum of squared
// coefficient differences over any prefix of the energy-ordered spectrum
// never exceeds the true squared distance. The exact paths already prune
// and abandon on it; the approximate tier additionally relaxes the NN
// traversal's continue test to LB^2*(1+delta)^2 > t^2, which skips only
// candidates whose true distance exceeds t/(1+delta) — so every reported
// i-th distance stays within (1+delta) of the exact i-th.
//
// Upper bound (residual energy): stored records are normal forms (mean 0,
// std 1), so by the unitary transform the stored spectrum's total energy
// is at most n. After accumulating r energy-ordered terms the unseen tail
// of A*X+B-Q has norm at most sufA(r)*sqrt(n - E_r) + sufBQ(r), where E_r
// is the prefix energy of X actually observed, sufA(r) = max over the
// tail of |a_f|, and sufBQ(r) the tail norm of (b - Q) — both precomputed
// at plan time for each checkpoint position (squared, in sufA2/sufBQ2). The multi-resolution ladder evaluates this bound at
// power-of-two checkpoints ("rungs"); when the bound proves what the
// query needs, verification stops without walking the remaining
// coefficients:
//
//   - range (APPROX delta): accept when UB <= (1+delta)*eps. Answers are
//     a superset of the exact answer set (nothing within eps is ever
//     dropped — rejection still requires LB > eps) and every member's
//     true distance is at most (1+delta)*eps. Dist carries the lower
//     bound, Bound the upper.
//   - NN: accept when UB <= (1+delta)*LB, offering UB as the candidate's
//     distance. Offered values lie in [D, (1+delta)D], abandoned or
//     skipped candidates certify t < (1+delta)D at the moment of
//     dismissal, and the shared threshold only tightens — together these
//     give reported_i <= (1+delta)*exact_i for every rank i.
//
// Delta == 0 takes the exact code path untouched (relaxSq == 1 multiplies
// through the traversal test as an IEEE identity and verification never
// routes here), which is what makes APPROX 0 byte-identical to exact.

// approx reports whether this plan runs the approximate tier.
func (p *rangePlan) approx() bool { return p.relaxSq > 1 }

// initApprox prepares the plan's approximate tier for a Delta > 0 query:
// the traversal relaxation and — for frequency-domain verification — the
// ladder's suffix precomputation. n is the store length (spectrum size).
// Warped queries verify exactly in the time domain, so only the
// relaxation applies there.
func (p *rangePlan) initApprox(n int) {
	d := p.q.Delta
	p.relax = 1 + d
	p.relaxSq = p.relax * p.relax
	if p.q.WarpFactor >= 2 || len(p.Q) == 0 {
		return
	}
	p.rung0 = defaultRung(n)
	p.energy = float64(n)
	// One backward pass, recording only at ladder checkpoint positions
	// (power-of-two suffix starts): the verification walk never reads the
	// suffix bound anywhere else, so the plan stores ~log2(n) values in
	// fixed arrays instead of two n-length tables — no allocation, and
	// both tables keep *squared* magnitudes so the pass runs without a
	// single sqrt or hypot (roots are taken at checkpoint use).
	maxA2, sumBQ := 0.0, 0.0
	for f := n - 1; f >= 0; f-- {
		ar, ai := real(p.a[f]), imag(p.a[f])
		if m := ar*ar + ai*ai; m > maxA2 {
			maxA2 = m
		}
		bq := p.b[f] - p.Q[f]
		sumBQ += real(bq)*real(bq) + imag(bq)*imag(bq)
		if f >= ladderStart && f&(f-1) == 0 {
			ord := bits.TrailingZeros(uint(f)) - ladderShift
			p.sufA2[ord] = maxA2
			p.sufBQ2[ord] = sumBQ
		}
	}
}

// ladderStart is the first verification ladder checkpoint (ladderShift
// its log2). Checkpoints cost a handful of flops, so the ladder always
// starts low and doubles: a workload whose residual energy collapses
// early (smooth or band-limited series) certifies at the earliest rung
// its bound allows, instead of walking to the planner's historical
// estimate — which would be self-fulfilling, since an accept at rung r
// observes exactly r terms and can never reveal that a smaller rung
// sufficed.
const (
	ladderStart = 8
	ladderShift = 3
)

// ladderRungs bounds the checkpoint count: rung ordinals index suffix
// stats for positions ladderStart << ord < n, so 40 ordinals cover any
// representable store length.
const ladderRungs = 40

// defaultRung is the cold estimate of the accepting rung: length/8
// rounded up to a power of two, at least 8 — the planner overrides it
// from measured resolve depths (plan.AttachApprox). The estimate feeds
// EXPLAIN's projected speedup and the reported Rung stat; the ladder
// itself always starts at ladderStart.
func defaultRung(n int) int {
	target := float64(n) / 8
	r := 8
	for float64(r) < target && r < n {
		r <<= 1
	}
	if r > n {
		r = n
	}
	return r
}

// verifyFreqApprox is the approximate tier's verification of one stored
// record: it opens the record like verifyFreq and runs the ladder walk over
// it — head first, pages only past it (the ladder's first rungs, 8 and 16,
// both fall inside the head).
func (sh *shard) verifyFreqApprox(p *rangePlan, ar *execArena, st *ExecStats, id int64, eps float64, nnMode bool) (within bool, dist, bound float64, err error) {
	rv, err := sh.freqRel.View(id)
	if err != nil {
		return false, 0, 0, err
	}
	return sh.ladderWalk(p, st, &ar.pages, rv.Head, rv, eps, nnMode)
}

// ladder is the running state of one ladder walk: the squared distance and
// the stored side's energy accumulated so far, and the next rung.
type ladder struct {
	sum, ex   float64
	next, ord int
}

// add accumulates coefficient f of the stored spectrum.
func (w *ladder) add(p *rangePlan, f int, x complex128) {
	d := p.a[f]*x + p.b[f] - p.Q[f]
	w.sum += real(d)*real(d) + imag(d)*imag(d)
	w.ex += real(x)*real(x) + imag(x)*imag(x)
}

// rung evaluates the residual-energy upper bound after terms coefficients,
// the checkpoint the walk has just reached, and reports whether it decides
// the candidate (see the file comment for the two accept rules).
func (w *ladder) rung(p *rangePlan, st *ExecStats, terms int, eps float64, nnMode bool) (decided, within bool, dist, bound float64) {
	w.next <<= 1
	tailE := p.energy - w.ex
	if tailE < 0 {
		tailE = 0
	}
	tail := math.Sqrt(p.sufA2[w.ord]*tailE) + math.Sqrt(p.sufBQ2[w.ord])
	w.ord++
	ubSq := w.sum + tail*tail
	var lb, ub float64
	if nnMode {
		if !(ubSq <= p.relaxSq*w.sum) {
			return false, false, 0, 0
		}
		ub = math.Sqrt(ubSq)
		lb = math.Sqrt(w.sum)
		within, dist = ub <= eps, ub
	} else {
		if ub = math.Sqrt(ubSq); !(ub <= p.relax*eps) {
			return false, false, 0, 0
		}
		lb = math.Sqrt(w.sum)
		within, dist = true, lb
	}
	st.DistanceTerms += int64(terms)
	st.EarlyAccepts++
	st.BoundTightSum += tightness(lb, ub)
	return true, within, dist, ub
}

// ladderWalk is the approximate tier's verification walk over an opened
// record: the exact early-abandoning coefficient loop of
// verifyFreq — resident prefix as a plain slice, then the pinned tail —
// with residual-energy upper-bound checks at ladder rungs. nnMode selects
// the accept rule (see the file comment). It returns the candidate's
// reported distance and its upper bound: for range answers dist is the
// lower bound at accept (exact distance on a full walk); for NN answers
// dist is the upper bound, which is what the top-k heap must order by for
// the guarantee to compose.
func (sh *shard) ladderWalk(p *rangePlan, st *ExecStats, pbuf *[][]byte, head []complex128, rv relation.View, eps float64, nnMode bool) (within bool, dist, bound float64, err error) {
	limit := eps * eps
	n := len(p.Q)
	w := ladder{next: ladderStart}
	for f, x := range head {
		w.add(p, f, x)
		if w.sum > limit {
			st.DistanceTerms += int64(f + 1)
			st.HeadResolved++
			return false, 0, 0, nil
		}
		if f+1 == w.next && f+1 < n {
			if decided, within, dist, bound := w.rung(p, st, f+1, eps, nnMode); decided {
				st.HeadResolved++
				return within, dist, bound, nil
			}
		}
	}
	if len(head) < n {
		cur, err := sh.pinTail(rv, pbuf, len(head))
		if err != nil {
			return false, 0, 0, err
		}
		defer sh.freqRel.ReleaseView(rv)
		for f := len(head); f < n; f++ {
			w.add(p, f, cur.Next())
			if w.sum > limit {
				st.DistanceTerms += int64(f + 1)
				return false, 0, 0, nil
			}
			if f+1 == w.next && f+1 < n {
				if decided, within, dist, bound := w.rung(p, st, f+1, eps, nnMode); decided {
					return within, dist, bound, nil
				}
			}
		}
	} else {
		st.HeadResolved++
	}
	st.DistanceTerms += int64(n)
	d := math.Sqrt(w.sum)
	return true, d, d, nil
}

// tightness is the realized quality of one early accept: LB/UB in (0, 1],
// 1 when the bound closed exactly on the true distance.
func tightness(lb, ub float64) float64 {
	if ub <= 0 {
		return 1
	}
	return lb / ub
}

// stampPlan stamps an execution's stats with what its plan decided: the
// Lemma 1 geometry it filtered with and the approximate tier it ran under
// (the index and frequency-scan run functions call it on every shard).
func stampPlan(p *rangePlan, st *ExecStats) {
	st.Filter = p.Prefilter
	if p.approx() {
		st.Delta = p.q.Delta
		st.Rung = p.rung0
	}
}

// observeApprox feeds one approximate execution's realized behavior back
// to the planner: mean bound tightness, verified terms per candidate, and
// the traversal's candidate/node counts.
func observeApprox(tr *plan.Tracker, pl *plan.Plan, st *ExecStats, series int) {
	if pl.Approx == nil {
		return
	}
	tight := 1.0
	if st.EarlyAccepts > 0 {
		tight = st.BoundTightSum / float64(st.EarlyAccepts)
	}
	terms := 0.0
	if st.Candidates > 0 {
		terms = float64(st.DistanceTerms) / float64(st.Candidates)
	}
	tr.ObserveApprox(pl.Kind, tight, terms, st.Candidates, st.NodeAccesses, series)
}
