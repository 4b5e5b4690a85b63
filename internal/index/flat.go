package index

import (
	"fmt"

	"repro/internal/feature"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/transform"
)

// This file is the zero-allocation batch form of the k-index read path:
// Range and NearestFunc restated over the R*-tree's flat node slabs with
// caller-owned scratch. Under the identity map answers are bit-identical to
// the per-entry traversals — same candidates, same order, same partial
// distances. Under a transformation in S_pol a leaf point's partial distance
// comes from its Cartesian image and one complex multiplication, where the
// per-entry traversals map the polar point and take its sine and cosine: the
// two agree to rounding (a few ulps), which can only reorder or re-decide
// candidates whose distances tie that closely.

// Scratch is the reusable working memory of one batch index search: the
// tree traversal scratch plus the query-side buffers (search-rectangle
// corners and reconstructed query coefficients) and the embedded visitor
// and kernel state, so interface conversions at the rtree boundary never
// allocate. A Scratch may be reused across queries, never concurrently.
type Scratch struct {
	tree     rtree.Scratch
	qc, act  []complex128
	qlo, qhi []float64
	rc       rangeCollector
	kern     nnKernel
}

// rangeCollector is the FlatVisitor of a batch range search: it applies the
// partial-distance prune (same threshold arithmetic as Range) and collects
// surviving IDs.
type rangeCollector struct {
	schema  feature.Schema
	act, qc []complex128
	limit   float64 // epsSq * (1 + 1e-12), the Range prune threshold
	prune   bool
	ids     []int64
}

func (rc *rangeCollector) VisitFlat(id int64, tlo, thi, cart []float64) bool {
	if rc.prune && rc.schema.CoeffDistSqFlat(leafPoint(rc.schema, tlo, cart), rc.act, rc.qc) > rc.limit {
		return true
	}
	rc.ids = append(rc.ids, id)
	return true
}

// leafPoint picks the form of a leaf point CoeffDistSqFlat reads in the
// schema's space: the transformed slab view in S_rect, the Cartesian image
// in S_pol.
func leafPoint(schema feature.Schema, tlo, cart []float64) []float64 {
	if schema.Space == feature.Polar {
		return cart
	}
	return tlo
}

// nnKernel supplies the feature-space geometry of a batch nearest-neighbor
// traversal: LowerBoundDistSq over transformed child rectangles and
// CoeffDistSqFlat over leaf points (the leaves of a polar index hand over
// their Cartesian blocks; see rtree.FlatNNKernel).
type nnKernel struct {
	schema  feature.Schema
	q       []float64
	act, qc []complex128
}

func (k *nnKernel) LowerBatch(lo, hi []float64, count, dims int, out []float64) {
	for e := 0; e < count; e++ {
		off := e * dims
		out[e] = k.schema.LowerBoundDistSqFlat(k.q, lo[off:off+dims], hi[off:off+dims])
	}
}

func (k *nnKernel) PointBatch(pts []float64, count, stride int, out []float64) {
	for e := 0; e < count; e++ {
		off := e * stride
		out[e] = k.schema.CoeffDistSqFlat(pts[off:off+stride], k.act, k.qc)
	}
}

// flatMap builds the tree-level affine action for m, attaching the angular
// flags exactly when the per-entry traversals would use the seam-aware
// overlap predicate, and — in S_pol, for leaf points — m's action per
// complex coefficient, formed here once per query (nil under the identity).
func (ix *KIndex) flatMap(m transform.AffineMap, sc *Scratch) (fm rtree.FlatMap, act []complex128) {
	fm = rtree.FlatMap{C: m.C, D: m.D, Identity: m.Identity()}
	if ix.angular != nil && !ix.plainOverlap {
		fm.Angular = ix.angular
	}
	if ix.schema.Space == feature.Polar && !fm.Identity {
		if cap(sc.act) < ix.schema.K {
			sc.act = make([]complex128, ix.schema.K)
		}
		act = sc.act[:ix.schema.K]
		ix.schema.PolarActionInto(m.C, m.D, act)
	}
	return fm, act
}

// RangeIDs is the batch form of Range, reduced to what the executor
// consumes: it appends the IDs of surviving candidates to out (post-prune,
// in the same order Range emits them) and returns the extended slice.
// Steady state it allocates nothing: scratch is caller-owned and out is
// reused across queries.
func (ix *KIndex) RangeIDs(q geom.Point, eps float64, m transform.AffineMap, mb feature.MomentBounds, prune bool, sc *Scratch, out []int64) ([]int64, rtree.SearchStats) {
	if len(q) != ix.schema.Dims() {
		panic(fmt.Sprintf("index: query point has %d dims, schema has %d", len(q), ix.schema.Dims()))
	}
	dims := ix.schema.Dims()
	if cap(sc.qlo) < dims {
		sc.qlo = make([]float64, dims)
		sc.qhi = make([]float64, dims)
	}
	sc.qlo, sc.qhi = sc.qlo[:dims], sc.qhi[:dims]
	ix.schema.SearchRectInto(q, eps, mb, sc.qlo, sc.qhi)
	if cap(sc.qc) < ix.schema.K {
		sc.qc = make([]complex128, ix.schema.K)
	}
	sc.qc = sc.qc[:ix.schema.K]
	ix.schema.CoeffsInto(q, sc.qc)

	epsSq := eps * eps
	fm, act := ix.flatMap(m, sc)
	sc.rc = rangeCollector{
		schema: ix.schema,
		act:    act,
		qc:     sc.qc,
		limit:  epsSq * (1 + 1e-12),
		prune:  prune,
		ids:    out,
	}
	st := ix.tree.FlatRange(sc.qlo, sc.qhi, fm, &sc.tree, &sc.rc)
	out = sc.rc.ids
	sc.rc.ids = nil // do not retain the caller's buffer across queries
	return out, st
}

// NearestIDs is the batch form of NearestFunc: it visits stored IDs in
// increasing order of the transformed-coefficient lower bound, handing v
// each item's exact k-coefficient (squared) partial distance. Steady state
// it allocates nothing.
func (ix *KIndex) NearestIDs(q geom.Point, m transform.AffineMap, sc *Scratch, v rtree.FlatNNVisitor) rtree.SearchStats {
	if len(q) != ix.schema.Dims() {
		panic(fmt.Sprintf("index: query point has %d dims, schema has %d", len(q), ix.schema.Dims()))
	}
	if cap(sc.qc) < ix.schema.K {
		sc.qc = make([]complex128, ix.schema.K)
	}
	sc.qc = sc.qc[:ix.schema.K]
	ix.schema.CoeffsInto(q, sc.qc)

	fm, act := ix.flatMap(m, sc)
	sc.kern = nnKernel{schema: ix.schema, q: q, act: act, qc: sc.qc}
	return ix.tree.NearestFlat(fm, &sc.kern, &sc.tree, v)
}
