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

// wrap builds the k-index over a tree of the schema's dimensionality. The
// leaves of a polar index keep their points' Cartesian images: rectangles
// stay polar, which is what makes a stretch-and-rotate transformation safe
// (Theorem 3), but a leaf's points are only ever compared as complex
// numbers, and the images spare every such comparison its sine and cosine.
func wrap(schema feature.Schema, tree *rtree.Tree) *KIndex {
	if schema.Space == feature.Polar {
		tree.KeepCartesian(schema.Skip())
	}
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

// Candidate is one index hit from the filter phase of Algorithm 2: a stored
// feature point whose transformed image falls in the query's search
// rectangle, together with the (squared) partial distance computed from the
// k retained coefficients. PartialDistSq lower-bounds the true full-series
// distance (Parseval), so candidates with PartialDistSq > eps^2 are pruned
// before any record fetch.
type Candidate struct {
	ID            int64
	Point         geom.Point
	Transformed   geom.Point
	PartialDistSq float64
}

// overlap returns the schema-appropriate rectangle intersection predicate:
// plain intersection in S_rect, seam-aware modulo-2*pi intersection on the
// phase-angle dimensions in S_pol.
func (ix *KIndex) overlap() rtree.Overlap {
	if ix.angular == nil || ix.plainOverlap {
		return nil
	}
	ang := ix.angular
	return func(tr, q geom.Rect) bool { return geom.IntersectsMixed(tr, q, ang) }
}

// Range runs the filter phase of the paper's Algorithm 2: traverse the
// index applying m (the affine action of a safe transformation) to every
// rectangle, collect the data points whose transformed image lies in the
// search rectangle around q, and compute their partial distances. When
// prune is true, candidates whose k-coefficient distance already exceeds
// eps are dropped (sound by Lemma 1's inequality chain).
//
// Pass transform.IdentityMap (or any map reporting Identity) for plain,
// untransformed range queries.
func (ix *KIndex) Range(q geom.Point, eps float64, m transform.AffineMap, mb feature.MomentBounds, prune bool) ([]Candidate, rtree.SearchStats) {
	if len(q) != ix.schema.Dims() {
		panic(fmt.Sprintf("index: query point has %d dims, schema has %d", len(q), ix.schema.Dims()))
	}
	qrect := ix.schema.SearchRect(q, eps, mb)
	epsSq := eps * eps
	var out []Candidate

	identity := m.Identity()
	rectTransform := func(r geom.Rect) geom.Rect { return r }
	if !identity {
		rectTransform = m.ApplyRect
	}

	st := ix.tree.TransformedSearch(qrect, rectTransform, ix.overlap(), func(it rtree.Item, tr geom.Rect) bool {
		p := it.Rect.Lo
		// Leaf rectangles are degenerate, so the transformed rectangle's
		// low corner *is* the transformed point. Phase angles may sit
		// outside [-pi, pi) here; CoeffDistSq reconstructs coefficients
		// with cmplx.Rect, which is angle-periodic, so no renormalization
		// is needed.
		tp := tr.Lo
		dSq := ix.schema.CoeffDistSq(tp, q)
		if prune && dSq > epsSq*(1+1e-12) {
			return true
		}
		out = append(out, Candidate{ID: it.ID, Point: p, Transformed: tp, PartialDistSq: dSq})
		return true
	})
	return out, st
}

// NearestFunc visits stored points in increasing order of the lower bound
// on the transformed coefficient distance to q, calling fn with each item's
// transformed point and its *exact k-coefficient* distance (squared). The
// visit order is by lower bound; fn receives exact partial distances and
// should stop (return false) once its own termination condition holds —
// typically when the bound of the next item exceeds the k-th best verified
// full distance.
func (ix *KIndex) NearestFunc(q geom.Point, m transform.AffineMap, fn func(c Candidate) bool) rtree.SearchStats {
	if len(q) != ix.schema.Dims() {
		panic(fmt.Sprintf("index: query point has %d dims, schema has %d", len(q), ix.schema.Dims()))
	}
	identity := m.Identity()
	lower := func(r geom.Rect) float64 {
		if !identity {
			r = m.ApplyRect(r)
		}
		return ix.schema.LowerBoundDistSq(q, r)
	}
	itemDist := func(it rtree.Item) float64 {
		p := it.Rect.Lo
		if !identity {
			p = m.ApplyPoint(p)
		}
		return ix.schema.CoeffDistSq(p, q)
	}
	return ix.tree.NearestScan(lower, itemDist, func(it rtree.Item, dist float64) bool {
		p := it.Rect.Lo
		tp := p
		if !identity {
			tp = m.ApplyPoint(p)
		}
		return fn(Candidate{ID: it.ID, Point: p, Transformed: tp, PartialDistSq: dist})
	})
}

// Materialize eagerly builds the transformed index I' of Algorithm 1 (for
// equivalence tests and the materialization ablation benchmark).
func (ix *KIndex) Materialize(m transform.AffineMap) *KIndex {
	return &KIndex{
		schema:       ix.schema,
		tree:         ix.tree.Materialize(m.ApplyRect),
		angular:      ix.angular,
		plainOverlap: ix.plainOverlap,
	}
}
