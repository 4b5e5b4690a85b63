package core

// This file is the floor reference of the NN suites: a count-only walk of
// the k-index told an indexed run's final k-th distance.
// TestCountNearIsTheIndexedRun, TestNNCandidatesNearTheCount and
// TestMirrorWeightOneIsThePapersFilter compare the indexed run against it.

// nearCounter is the FlatNNVisitor of a count-only NN traversal: it counts
// the items whose k-coefficient lower bound is within a known k-th
// distance.
type nearCounter struct {
	// bound is the plan's stopLine at the k-th distance: where nnVisit
	// stops once its k-set holds the final answer.
	bound float64
	n     int
}

func (c *nearCounter) NearBound() float64 { return c.bound }

func (c *nearCounter) VisitNear(_ int64, partialDistSq float64) bool {
	if partialDistSq > c.bound {
		return false
	}
	c.n++
	return true
}

// countNear measures what an indexed run of an answered NN plan costs this
// shard without verifying anything: the nodes it would visit, and a floor
// under the candidates it would verify. A traversal told the final k-th
// distance counts the items within its stop line. The indexed run verifies
// every one of them — each lies in a leaf whose lower bound is no larger, and
// is checked against a k-th best no better than the final one — plus the few
// items of leaves it expanded while its k-th best was still looser (about 4 %
// more on family walks, TestNNCandidatesNearTheCount). It visits exactly the
// run's nodes: every node within the final stop line, and when it pops the
// first one past it, the leaves holding the answer lay nearer, were expanded,
// and the k-th best is final.
func (sh *shard) countNear(rp *rangePlan, ar *execArena, kth float64) (candidates, nodes int) {
	nc := nearCounter{bound: rp.stopLine(kth)}
	searchStats := sh.idx.NearestIDs(rp.qp, rp.m, &ar.sc, &nc)
	return nc.n, searchStats.NodesVisited
}
