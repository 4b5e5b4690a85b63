package rtree

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// checkBlocks requires a tree keeping Cartesian images to hold, for every
// point of the oracle, exactly the image of that point — checked twice: by
// CheckInvariants against the entries, and through a whole-space FlatRange
// against the oracle, which is what a traversal would read.
func checkBlocks(t *testing.T, label string, tree *Tree, from int, want map[int64]geom.Point) {
	t.Helper()
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	lo, hi := make([]float64, tree.Dims()), make([]float64, tree.Dims())
	for j := range lo {
		lo[j], hi[j] = math.Inf(-1), math.Inf(1)
	}
	var sc Scratch
	got := leafCollector{pts: map[int64][]float64{}, carts: map[int64][]float64{}}
	tree.FlatRange(lo, hi, identity, &sc, &got)
	if len(got.carts) != len(want) {
		t.Fatalf("%s: %d leaf entries visited, want %d", label, len(got.carts), len(want))
	}
	for id, p := range want {
		block := got.carts[id]
		if len(block) != tree.Dims()-from {
			t.Fatalf("%s: id %d has a block entry of %d cells, want %d", label, id, len(block), tree.Dims()-from)
		}
		for j := 0; j+1 < len(block); j += 2 {
			re, im := geom.PolarToRect(p[from+j], p[from+j+1])
			if block[j] != re || block[j+1] != im {
				t.Fatalf("%s: id %d pair %d: block (%v, %v), point's image (%v, %v)", label, id, j/2, block[j], block[j+1], re, im)
			}
		}
	}
}

// TestCartesianBlockCoherence drives a tree keeping Cartesian images with
// random inserts (leaf splits and forced reinsertions at M = 8), small
// drifts (rewritten in place, one block entry each), large jumps (delete +
// reinsert) and deletes (condensation, orphan reinsertion), checking after
// every operation that each leaf's block is the image of its entries; then
// the same for a bulk-loaded tree, a decoded one brought up to date by
// Coefficients — the adopt path — and a materialized one. The seed is
// logged for replay.
func TestCartesianBlockCoherence(t *testing.T) {
	const seed, dims, from = 20260927, 6, 2
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	tree := MustNew(dims, Options{MaxEntries: 8})
	tree.Coefficients(from, true)
	point := func() geom.Point {
		p := make(geom.Point, dims)
		for j := range p {
			p[j] = rng.NormFloat64() * 3
		}
		for j := from; j < dims; j += 2 {
			p[j], p[j+1] = math.Abs(p[j]), geom.NormalizeAngle(rng.Float64()*100)
		}
		return p
	}
	want := map[int64]geom.Point{}
	var ids []int64
	next := int64(0)
	inPlace, moved := 0, 0
	for step := 0; step < 1500; step++ {
		switch k := rng.Intn(10); {
		case k < 4 || len(ids) < 20:
			p := point()
			if err := tree.Insert(geom.PointRect(p), next); err != nil {
				t.Fatal(err)
			}
			want[next], ids = p, append(ids, next)
			next++
		case k < 8:
			id := ids[rng.Intn(len(ids))]
			p := want[id].Clone()
			if rng.Intn(4) == 0 {
				p = point() // a jump: out of the leaf, delete + reinsert
			} else {
				for j := range p {
					p[j] += rng.NormFloat64() * 0.01
				}
				for j := from; j < dims; j += 2 {
					p[j] = math.Abs(p[j])
				}
			}
			in, found := tree.Update(geom.PointRect(want[id]), geom.PointRect(p), id)
			if !found {
				t.Fatalf("step %d: id %d not found for update", step, id)
			}
			if in {
				inPlace++
			} else {
				moved++
			}
			want[id] = p
		default:
			i := rng.Intn(len(ids))
			id := ids[i]
			if !tree.Delete(geom.PointRect(want[id]), id) {
				t.Fatalf("step %d: id %d not found for delete", step, id)
			}
			delete(want, id)
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if step%100 == 99 {
			checkBlocks(t, "churned", tree, from, want)
		}
	}
	if inPlace == 0 || moved == 0 || tree.Height() < 3 {
		t.Fatalf("the churn did not cover its cases: %d in-place updates, %d moves, height %d", inPlace, moved, tree.Height())
	}
	checkBlocks(t, "churned", tree, from, want)

	items := make([]Item, 0, len(want))
	for id, p := range want {
		items = append(items, Item{Rect: geom.PointRect(p), ID: id})
	}
	bulk := MustNew(dims, Options{MaxEntries: 8})
	bulk.Coefficients(from, true)
	if err := bulk.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	checkBlocks(t, "bulk-loaded", bulk, from, want)

	// A snapshot carries no blocks: the decoded tree has none until the
	// adopting index asks for them, and then every leaf has its own.
	var buf bytes.Buffer
	if err := tree.EncodeBinary(&buf, nil); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	decoded.Coefficients(from, true)
	checkBlocks(t, "decoded", decoded, from, want)

	// And it takes writes like the tree it was saved from.
	for i := 0; i < 50; i++ {
		id := ids[rng.Intn(len(ids))]
		p := want[id].Clone()
		p[from+1] += 0.001
		if _, found := decoded.Update(geom.PointRect(want[id]), geom.PointRect(p), id); !found {
			t.Fatalf("decoded: id %d not found for update", id)
		}
		want[id] = p
	}
	checkBlocks(t, "decoded, updated", decoded, from, want)

	// Materialize maps every rectangle; the copy's blocks are the images of
	// the mapped points.
	shift := FlatMap{C: make([]float64, dims), D: make([]float64, dims)}
	for j := range shift.C {
		shift.C[j] = 1
	}
	for j := from; j < dims; j += 2 {
		shift.C[j], shift.D[j+1] = 2, 0.5
	}
	mapped := map[int64]geom.Point{}
	for id, p := range want {
		q := p.Clone()
		for j := range q {
			q[j] = shift.C[j]*q[j] + shift.D[j]
		}
		mapped[id] = q
	}
	checkBlocks(t, "materialized", decoded.Materialize(shift), from, mapped)
}
