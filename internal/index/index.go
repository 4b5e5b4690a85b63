// Package index implements the paper's k-index (Section 4): an R*-tree over
// the first k DFT feature coefficients of every stored series, searched
// either directly or through a safe transformation applied on the fly to
// every node rectangle and data point (Algorithms 1 and 2). By Lemma 1 the
// traversal returns a superset of the true answer set — no false
// dismissals — which the query engine's post-processing then filters with
// exact distances from the full records.
package index

import (
	"fmt"
	"io"

	"repro/internal/feature"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/transform"
)

// KIndex is a feature-space R*-tree with schema-aware (polar or
// rectangular) overlap semantics.
type KIndex struct {
	schema  feature.Schema
	tree    *rtree.Tree
	angular []bool
	// plainOverlap disables the seam-aware modulo-2*pi overlap predicate
	// on phase-angle dimensions, reverting to plain interval intersection
	// (the paper's implicit behavior). Settable only through
	// SetPlainOverlap; exists for the angular-seam ablation, which
	// measures the false dismissals this causes.
	plainOverlap bool
}

// SetPlainOverlap toggles seam-unaware angle intersection (ablation only;
// true risks false dismissals near the +/- pi seam).
func (ix *KIndex) SetPlainOverlap(plain bool) { ix.plainOverlap = plain }

// New creates an empty k-index for the given feature schema.
func New(schema feature.Schema, opts rtree.Options) (*KIndex, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	tree, err := rtree.New(schema.Dims(), opts)
	if err != nil {
		return nil, err
	}
	return wrap(schema, tree), nil
}

// wrap builds the k-index over a tree of the schema's dimensionality and
// declares the tree's coefficient dimensions: everything after the mean and
// std, which no distance bound reads, so a bulk load tiles only the space
// where the filter prunes. The leaves of a polar index keep their points'
// Cartesian images: rectangles stay polar, which is what makes a
// stretch-and-rotate transformation safe (Theorem 3), but a leaf's points
// are only ever compared as complex numbers, and the images spare every such
// comparison its sine and cosine.
func wrap(schema feature.Schema, tree *rtree.Tree) *KIndex {
	tree.Coefficients(schema.Skip(), schema.Space == feature.Polar)
	return &KIndex{schema: schema, tree: tree, angular: schema.Angular()}
}

// Adopt wraps a tree decoded from a snapshot (rtree.DecodeBinary) as the
// k-index, validating it structurally — dimensionality against the schema
// and the full R*-tree invariants — before use. This is the "validate"
// half of the snapshot cold start's read + validate + adopt path: the
// packed tree is taken as-is, with no re-sorting, re-insertion, or feature
// recomputation. The adopted tree keeps the fan-out recorded in the
// snapshot, which may differ from the store's configured rtree.Options.
func Adopt(schema feature.Schema, tree *rtree.Tree) (*KIndex, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if tree.Dims() != schema.Dims() {
		return nil, fmt.Errorf("index: adopted tree has %d dims, schema has %d", tree.Dims(), schema.Dims())
	}
	if err := tree.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("index: adopted tree invalid: %w", err)
	}
	return wrap(schema, tree), nil
}

// EncodeTree serialises the underlying packed tree in the versioned binary
// format (see rtree.EncodeBinary); remap translates stored IDs on the way
// out.
func (ix *KIndex) EncodeTree(w io.Writer, remap func(int64) (int64, bool)) error {
	return ix.tree.EncodeBinary(w, remap)
}

// Schema returns the feature schema the index was built with.
func (ix *KIndex) Schema() feature.Schema { return ix.schema }

// Len returns the number of indexed points.
func (ix *KIndex) Len() int { return ix.tree.Len() }

// Tree exposes the underlying R*-tree (read-only use: joins, diagnostics).
func (ix *KIndex) Tree() *rtree.Tree { return ix.tree }

// Insert adds a feature point under the given ID.
func (ix *KIndex) Insert(id int64, p geom.Point) error {
	if len(p) != ix.schema.Dims() {
		return fmt.Errorf("index: point has %d dims, schema has %d", len(p), ix.schema.Dims())
	}
	return ix.tree.Insert(geom.PointRect(p), id)
}

// InsertSeries extracts the feature point of s and inserts it.
func (ix *KIndex) InsertSeries(id int64, s []float64) error {
	p, err := ix.schema.Extract(s)
	if err != nil {
		return err
	}
	return ix.Insert(id, p)
}

// BulkLoad builds the index from pre-extracted feature points with STR
// packing. The index must be empty.
func (ix *KIndex) BulkLoad(points []geom.Point, ids []int64) error {
	if len(points) != len(ids) {
		return fmt.Errorf("index: %d points but %d ids", len(points), len(ids))
	}
	items := make([]rtree.Item, len(points))
	for i, p := range points {
		if len(p) != ix.schema.Dims() {
			return fmt.Errorf("index: point %d has %d dims, schema has %d", i, len(p), ix.schema.Dims())
		}
		items[i] = rtree.Item{Rect: geom.PointRect(p), ID: ids[i]}
	}
	return ix.tree.BulkLoad(items)
}

// Delete removes the point previously inserted under (p, id).
func (ix *KIndex) Delete(id int64, p geom.Point) bool {
	return ix.tree.Delete(geom.PointRect(p), id)
}

// Update moves the point stored under (old, id) to new, in place when the
// new point still lies inside its leaf's bounding rectangle (the common
// case for the small per-append feature drift of streaming ingest) and via
// delete + reinsert otherwise. See rtree.Tree.Update.
func (ix *KIndex) Update(id int64, old, new geom.Point) (inPlace, found bool) {
	return ix.tree.Update(geom.PointRect(old), geom.PointRect(new), id)
}

// The read path — the filter phase of the paper's Algorithm 2 — is RangeIDs
// and NearestIDs: the R*-tree's two traversals under the affine action of a
// safe transformation, with caller-owned scratch so a steady-state query
// allocates nothing. In S_pol a leaf point's partial distance comes from its
// Cartesian image and one complex multiplication per coefficient; mapping
// the polar point and taking its sine and cosine gives the same number to
// rounding (a few ulps).

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

// rangeCollector is the FlatVisitor of a range search: it applies the
// partial-distance prune and collects surviving IDs.
type rangeCollector struct {
	schema  feature.Schema
	act, qc []complex128
	limit   float64 // epsSq * (1 + 1e-12), the prune threshold
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

// nnKernel supplies the feature-space geometry of a nearest-neighbor
// traversal: LowerBoundDistSqFlat over transformed child rectangles and
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
// flags — in S_pol the phase-angle dimensions overlap modulo 2*pi, unless
// the seam ablation switched that off. In S_pol it also returns m's action
// per complex coefficient, which is what a leaf point is mapped by, formed
// here once per query (nil under the identity).
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

// RangeIDs runs the filter phase of the paper's Algorithm 2: traverse the
// index applying m (the affine action of a safe transformation) to every
// rectangle and collect the data points whose transformed image lies in the
// search rectangle around q — by Lemma 1 a superset of the true answers.
// When prune is true, candidates whose k-coefficient distance already
// exceeds eps are dropped (sound by Lemma 1's inequality chain: the partial
// distance lower-bounds the full one). The survivors' IDs are appended to
// out, in traversal order, and the extended slice returned. Steady state it
// allocates nothing: scratch is caller-owned and out is reused across
// queries.
//
// Pass transform.IdentityMap (or any map reporting Identity) for plain,
// untransformed range queries.
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

// NearestIDs runs the best-first nearest-neighbor walk around q under m and
// hands v each stored ID with its exact k-coefficient (squared) partial
// distance, leaf by leaf: leaves in increasing order of their lower bound, a
// leaf's IDs in increasing partial distance (see rtree.FlatNNVisitor). A v
// with a NearBound — typically the stop line at its k-th best verified full
// distance — sees only IDs within it, and the walk ends at the first node
// beyond it; returning false ends it too. Steady state it allocates nothing.
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

// Materialize eagerly builds the transformed index I' of Algorithm 1 (for
// equivalence tests and the materialization ablation benchmark).
func (ix *KIndex) Materialize(m transform.AffineMap) *KIndex {
	return &KIndex{
		schema:       ix.schema,
		tree:         ix.tree.Materialize(rtree.FlatMap{C: m.C, D: m.D, Identity: m.Identity()}),
		angular:      ix.angular,
		plainOverlap: ix.plainOverlap,
	}
}
