package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/plan"
	"repro/internal/transform"
)

// NNQuery describes a k-nearest-neighbor query under a transformation: the
// k stored series minimizing D(T(nf(x)), nf(q)), or
// D(T(nf(x)), T(nf(q))) when BothSides is set.
type NNQuery struct {
	Values     []float64
	K          int
	Transform  transform.T
	WarpFactor int
	BothSides  bool
	// Delta is the approximate tier's guaranteed relative error bound
	// (APPROX delta): 0 answers exactly; delta > 0 relaxes the
	// branch-and-bound's continue test and lets verification stop at a
	// ladder rung, guaranteeing every reported i-th distance is within
	// (1+Delta) of the exact i-th. See approx.go.
	Delta float64
	// Prep carries the stored-record planning artifacts when the query
	// series is itself a stored series; see RangeQuery.Prep.
	Prep *QueryPrep
}

// topK is the current k-best set of a nearest-neighbor search, safe for
// concurrent use. A one-shard search owns an arena's privately; a fan-out
// shares one instance across all shard workers, so every worker prunes
// against the globally best k-th distance and sharding does not inflate
// candidate counts.
//
// The set is a typed max-heap of Results under the (Dist, ID) total
// order: the root is the worst of the current k best, so it is the first
// to be displaced. Breaking distance ties by ID makes the retained k-set
// — and therefore NN output — independent of candidate arrival order.
// (Typed sift functions rather than container/heap: the interface-based
// heap boxes every Result it pushes, which the zero-allocation hot path
// cannot afford.)
type topK struct {
	mu sync.Mutex
	k  int
	h  []Result
	// kth publishes the bits of the k-th best distance (+Inf while the set
	// is filling): written under mu whenever the root changes, read
	// lock-free by threshold, which runs once per candidate on every worker
	// sharing the set. It is published one ulp up: verification squares the
	// threshold, and the square of a rounded root can fall an ulp short of
	// the sum it was the root of — which dismissed an exact tie with the
	// k-th best before offer could break it by ID, so that which of two
	// identical series an NN returned depended on which arrived first.
	kth atomic.Uint64
}

var infBits = math.Float64bits(math.Inf(1))

func newTopK(k int) *topK {
	t := &topK{k: k}
	t.kth.Store(infBits)
	return t
}

// reset reinitializes a (possibly pooled) set for a fresh search of k
// neighbors, keeping the heap's capacity.
func (t *topK) reset(k int) {
	t.mu.Lock()
	t.k = k
	t.h = t.h[:0]
	t.kth.Store(infBits)
	t.mu.Unlock()
}

// siftUp restores the max-heap order after appending at index i.
func (t *topK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !resultLess(t.h[parent], t.h[i]) {
			return
		}
		t.h[parent], t.h[i] = t.h[i], t.h[parent]
		i = parent
	}
}

// siftDown restores the max-heap order after replacing the root.
func (t *topK) siftDown(i int) {
	n := len(t.h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		big := l
		if r := l + 1; r < n && resultLess(t.h[big], t.h[r]) {
			big = r
		}
		if !resultLess(t.h[i], t.h[big]) {
			return
		}
		t.h[i], t.h[big] = t.h[big], t.h[i]
		i = big
	}
}

// threshold returns the current k-th best distance (rounded up; see kth), or
// +Inf while the set is still filling. Verification may use it as an
// early-abandoning bound; it only ever tightens.
func (t *topK) threshold() float64 {
	return math.Float64frombits(t.kth.Load())
}

// offer admits r if it beats the current worst of the k best under the
// (Dist, ID) order.
func (t *topK) offer(r Result) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case len(t.h) < t.k:
		t.h = append(t.h, r)
		t.siftUp(len(t.h) - 1)
		if len(t.h) < t.k {
			return
		}
	case resultLess(r, t.h[0]):
		t.h[0] = r
		t.siftDown(0)
	default:
		return
	}
	t.kth.Store(math.Float64bits(math.Nextafter(t.h[0].Dist, math.Inf(1))))
}

// appendResults appends the final k best to dst and sorts dst ascending by
// (Dist, ID). dst must carry only this search's answers (pass a [:0]
// slice to reuse its backing array).
func (t *topK) appendResults(dst []Result) []Result {
	t.mu.Lock()
	dst = append(dst, t.h...)
	t.mu.Unlock()
	sortResults(dst)
	return dst
}

// planNN validates q and builds the plan of its equivalent open-threshold
// range query.
func (sh *shard) planNN(q NNQuery) (*rangePlan, error) {
	if q.K < 1 {
		return nil, fmt.Errorf("core: K must be >= 1, got %d", q.K)
	}
	rq := RangeQuery{Values: q.Values, Eps: math.Inf(1), Transform: q.Transform, WarpFactor: q.WarpFactor, BothSides: q.BothSides, Delta: q.Delta, Prep: q.Prep}
	return sh.planRange(rq)
}

// nnVisit is the FlatNNVisitor of a batch nearest-neighbor execution: the
// per-candidate refinement step of the branch-and-bound, held in the
// arena so handing it to the traversal as an interface never allocates.
type nnVisit struct {
	sh   *shard
	p    *rangePlan
	best *topK
	ar   *execArena
	st   *ExecStats
	warp bool
	err  error
}

// NearBound is the traversal's stop line at the shared k-th best distance
// (rangePlan.stopLine); +Inf while the k-set is filling.
func (v *nnVisit) NearBound() float64 {
	return v.p.stopLine(v.best.threshold())
}

// VisitNear verifies one item. It returns false only on error: the walk
// hands over an item only while it is within NearBound, and one that is not
// by the time it arrives — a sibling shard tightened the shared k-th best
// in between — is simply not a candidate.
func (v *nnVisit) VisitNear(id int64, partialDistSq float64) bool {
	// eps is the shared k-th-best distance: it bounds both the decision
	// to verify and the early abandoning inside verification.
	eps := v.best.threshold()
	if partialDistSq > v.p.stopLine(eps) {
		return true
	}
	v.st.Candidates++
	var (
		within      bool
		dist, bound float64
		err         error
	)
	switch {
	case v.warp:
		within, dist, err = v.sh.verifyWarp(v.p, v.st, id, eps)
		bound = dist
	case v.p.approx():
		within, dist, bound, err = v.sh.verifyFreqApprox(v.p, v.ar, v.st, id, eps, true)
	default:
		within, dist, err = v.sh.verifyFreq(v.st, &v.ar.pages, id, v.ar.k, eps)
	}
	if err != nil {
		v.err = err
		return false
	}
	if within {
		r := Result{ID: id, Name: v.sh.name(id), Dist: dist}
		if v.p.approx() {
			r.Bound = bound
		}
		v.best.offer(r)
	}
	return true
}

// nnIndexedArena runs the transform-aware branch-and-bound of Section 4
// ("as we go down the tree, we apply T to all entries of the node we visit
// ... use any kind of metric such as MINDIST for pruning") against this shard
// over the flat-slab batch traversal, feeding verified
// answers into best — which may be shared with searches over sibling
// shards — and accumulating filter-side costs into st (NodeAccesses,
// Candidates, DistanceTerms). Leaves come out of the index in order of
// their lower bound, and each leaf's items in order of their k-coefficient
// partial distance; a leaf is closed at its first item past the stop line at
// the current k-th best verified distance, and the traversal stops at the
// first node past it (lower bound <= true distance by Parseval, so stopping
// is exact). An item can be verified against a k-th best that a leaf
// expanded later would have tightened, so the candidates may be a few more
// than the items within the final k-th distance (countNear); the nodes are
// the same. Steady state it allocates nothing.
func (sh *shard) nnIndexedArena(p *rangePlan, best *topK, ar *execArena, st *ExecStats) error {
	stampPlan(p, st)
	ar.nv = nnVisit{sh: sh, p: p, best: best, ar: ar, st: st, warp: p.q.WarpFactor >= 2}
	searchStats := sh.idx.NearestIDs(p.qp, p.m, &ar.sc, &ar.nv)
	st.NodeAccesses += searchStats.NodesVisited
	err := ar.nv.err
	ar.nv = nnVisit{}
	return err
}

// nnScanArena is the scan analogue of nnIndexedArena: it verifies every
// stored series, with a pruning threshold that tightens to the (possibly
// shared) current k-th best distance.
func (sh *shard) nnScanArena(p *rangePlan, best *topK, ar *execArena, st *ExecStats) error {
	stampPlan(p, st)
	warp := p.q.WarpFactor >= 2
	approx := !warp && p.approx()
	for _, id := range sh.ids {
		st.Candidates++
		var (
			within      bool
			dist, bound float64
			err         error
		)
		switch {
		case warp:
			within, dist, err = sh.verifyWarp(p, st, id, best.threshold())
			bound = dist
		case approx:
			within, dist, bound, err = sh.verifyFreqApprox(p, ar, st, id, best.threshold(), true)
		default:
			within, dist, err = sh.verifyFreq(st, &ar.pages, id, ar.k, best.threshold())
		}
		if err != nil {
			return err
		}
		if within {
			r := Result{ID: id, Name: sh.name(id), Dist: dist}
			if p.approx() {
				r.Bound = bound
			}
			best.offer(r)
		}
	}
	return nil
}

// runNN is runRange's nearest-neighbor twin: it runs an NN plan's resolved
// strategy against this shard, feeding verified answers into best — shared
// across the store's partitions.
func (sh *shard) runNN(strategy plan.Strategy, p *rangePlan, best *topK, ar *execArena, st *ExecStats) error {
	ar.k = p.kernelInto(ar.k)
	switch strategy {
	case plan.Index:
		return sh.nnIndexedArena(p, best, ar, st)
	case plan.ScanFreq:
		return sh.nnScanArena(p, best, ar, st)
	default:
		return fmt.Errorf("core: plan carries unresolved strategy %v", strategy)
	}
}
