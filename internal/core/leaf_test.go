package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/rtree"
	"repro/internal/transform"
)

// leafKernels are the verification kernels the leaf tests run: the
// identity, a moving average on both sides, and a one-sided spin — a
// transformation that breaks conjugate symmetry, so its twins differ (the
// w = 1 path).
func leafKernels(t *testing.T, n int) map[string]struct {
	tr   transform.T
	both bool
} {
	t.Helper()
	spin := make([]complex128, n)
	for f := range spin {
		spin[f] = cmplx.Rect(1, 0.1*float64(f))
	}
	lopsided, err := transform.New(spin, make([]complex128, n), 0, "spin")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]struct {
		tr   transform.T
		both bool
	}{
		"identity":      {transform.Identity(n), false},
		"mavg(20) both": {transform.MovingAverage(n, 20), true},
		"spin":          {lopsided, false},
	}
}

// TestLeafPrefixIsVerifyFreqPrefix: the leaf prefix test is the start of
// verifyFreq — both walk the head with headSum — so on every record of a
// store, under every kernel and at limits on and an ulp either side of each
// partial sum, it calls a record far exactly when verifyFreq abandons it
// within the prefix, after the same number of terms, never calls far a
// record verifyFreq keeps, and counts nothing until the walk hands the far
// item over (VisitFar), which counts it as verification does. Both limits
// are checked: a range read's eps², and an NN read's square of the shared
// k-th best.
func TestLeafPrefixIsVerifyFreqPrefix(t *testing.T) {
	const n, count, seed = 64, 120, 20261016
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	names, values := familyWalks(count, n, seed)
	eng := newTestEngine(t, n, 1, Options{})
	if err := eng.InsertBulk(names, values); err != nil {
		t.Fatal(err)
	}
	sh := shardsOf(eng)[0]
	width := min(relation.LeafCoeffs, halfLen(n))
	for label, kc := range leafKernels(t, n) {
		q := append([]float64(nil), values[rng.Intn(count)]...)
		for i := range q {
			q[i] += rng.NormFloat64() * 0.3
		}
		p, err := sh.planRange(RangeQuery{Values: q, Eps: 1, Transform: kc.tr, BothSides: kc.both})
		if err != nil {
			t.Fatal(err)
		}
		k := p.kernelInto(nil)
		far := 0
		sh.idx.Tree().All(func(it rtree.Item) bool {
			// The partial sums, to place limits on and around them.
			sums := make([]float64, width)
			var sum float64
			for f := range sums {
				sum += k[f].term(it.Pre[f])
				sums[f] = sum
			}
			j := rng.Intn(width)
			at := math.Sqrt(sums[j])
			for _, eps := range []float64{at, math.Nextafter(at, 0), math.Nextafter(at, math.Inf(1)), rng.Float64() * 2 * math.Sqrt(sums[width-1])} {
				best := newTopK(1)
				best.offer(Result{ID: -1, Dist: eps})
				for _, mode := range []struct {
					name string
					lt   leafTest
					eps  float64
				}{
					{"range", leafTest{k: k, limit: eps * eps}, eps},
					{"nn", leafTest{k: k, best: best}, best.threshold()},
				} {
					var lst, vst ExecStats
					lt := mode.lt
					lt.st = &lst
					terms := lt.FarPrefix(it.Pre)
					isFar := terms > 0
					if isFar {
						lt.VisitFar(1, terms)
					}
					within, _, err := sh.verifyFreq(&vst, nil, it.ID, k, mode.eps)
					if err != nil {
						t.Fatal(err)
					}
					where := fmt.Sprintf("%s %s: id %d at eps %v (partial sum %d: %v)", label, mode.name, it.ID, mode.eps, j, sums[j])
					switch {
					case isFar && within:
						t.Fatalf("%s: the leaf called far a record verification keeps", where)
					case isFar && (lst.DistanceTerms != vst.DistanceTerms || lst.Candidates != 1 || lst.HeadResolved != 1 || lst.LeafResolved != 1):
						t.Fatalf("%s: the leaf stopped after %d terms, verification after %d (leaf stats %+v)", where, lst.DistanceTerms, vst.DistanceTerms, lst)
					case !isFar && !reflect.DeepEqual(lst, ExecStats{}):
						t.Fatalf("%s: a record the leaf kept was counted: %+v", where, lst)
					case !isFar && !within && vst.DistanceTerms <= int64(width):
						t.Fatalf("%s: verification abandoned after %d terms, inside the %d-coefficient prefix the leaf kept", where, vst.DistanceTerms, width)
					}
					if isFar {
						far++
					}
				}
			}
			return true
		})
		if far == 0 {
			t.Fatalf("%s: no record was ever far: the test does not exercise the prefix", label)
		}
	}
}

// TestLeafTestIndexEqualsScan: with the leaf prefix test on, indexed range
// and NN reads answer like a forced frequency scan, IDs and distance bits,
// at one shard and at four, under every leaf kernel — and the test resolves
// candidates in the leaf.
func TestLeafTestIndexEqualsScan(t *testing.T) {
	const n, count, reads, seed = 64, 800, 12, 20261017
	t.Logf("seed %d", seed)
	names, values := familyWalks(count, n, seed)
	for _, shards := range []int{1, 4} {
		eng := newTestEngine(t, n, shards, Options{})
		if err := eng.InsertBulk(names, values); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed + int64(shards)))
		leaf := 0
		for label, kc := range leafKernels(t, n) {
			for i := 0; i < reads; i++ {
				q := append([]float64(nil), values[rng.Intn(count)]...)
				for j := range q {
					q[j] += rng.NormFloat64() * 0.2
				}
				nq := NNQuery{Values: q, K: 10, Transform: kc.tr, BothSides: kc.both}
				idx, st, err := forcedNN(eng, nq, plan.Index)
				if err != nil {
					t.Fatal(err)
				}
				scan, _, err := forcedNN(eng, nq, plan.ScanFreq)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(idx, scan) {
					t.Fatalf("shards=%d %s nn read %d: the index answers %v, the scan %v", shards, label, i, idx, scan)
				}
				leaf += st.LeafResolved
				// A threshold between the 6th and 7th nearest.
				rq := RangeQuery{Values: q, Eps: (scan[5].Dist + scan[6].Dist) / 2, Transform: kc.tr, BothSides: kc.both}
				ridx, rst, err := forcedRange(eng, rq, plan.Index)
				if err != nil {
					t.Fatal(err)
				}
				rscan, _, err := forcedRange(eng, rq, plan.ScanFreq)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ridx, rscan) || len(ridx) != 6 {
					t.Fatalf("shards=%d %s range read %d: the index answers %v, the scan %v", shards, label, i, ridx, rscan)
				}
				leaf += rst.LeafResolved
			}
		}
		if leaf == 0 {
			t.Fatalf("shards=%d: no candidate was resolved in a leaf", shards)
		}
	}
}

// TestApproxReadsAskTheLeafTest: an approximate read runs the exact read's
// leaf prefix test — its APPROX range answers are the exact read's, IDs and
// distance bits — and an indexed APPROX NN and an indexed APPROX range read
// each resolve candidates in the leaf, at one shard and at four.
func TestApproxReadsAskTheLeafTest(t *testing.T) {
	const n, count, reads, seed, delta = 64, 800, 12, 20261019, 0.1
	t.Logf("seed %d", seed)
	names, values := familyWalks(count, n, seed)
	id := transform.Identity(n)
	for _, shards := range []int{1, 4} {
		eng := newTestEngine(t, n, shards, Options{})
		if err := eng.InsertBulk(names, values); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed + int64(shards)))
		nnLeaf, rangeLeaf := 0, 0
		for i := 0; i < reads; i++ {
			q := append([]float64(nil), values[rng.Intn(count)]...)
			for j := range q {
				q[j] += rng.NormFloat64() * 0.2
			}
			nn, nst, err := forcedNN(eng, NNQuery{Values: q, K: 10, Transform: id, Delta: delta}, plan.Index)
			if err != nil {
				t.Fatal(err)
			}
			nnLeaf += nst.LeafResolved
			rq := RangeQuery{Values: q, Eps: (nn[5].Dist + nn[6].Dist) / 2, Transform: id}
			exact, _, err := forcedRange(eng, rq, plan.Index)
			if err != nil {
				t.Fatal(err)
			}
			rq.Delta = delta
			apx, rst, err := forcedRange(eng, rq, plan.Index)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(apx, exact) || rst.Delta != delta {
				t.Fatalf("shards=%d range read %d: APPROX %g answers %v (delta %g), the exact read %v", shards, i, delta, apx, rst.Delta, exact)
			}
			rangeLeaf += rst.LeafResolved
		}
		if nnLeaf == 0 || rangeLeaf == 0 {
			t.Fatalf("shards=%d: APPROX reads resolved %d NN and %d range candidates in a leaf, want both > 0", shards, nnLeaf, rangeLeaf)
		}
	}
}

// TestLeafTestReadsOnlyItsPrefix: the leaf prefix test reads at most the
// relation.LeafCoeffs coefficients its entry carries. A leaf's prefix
// columns lie end to end, so one coefficient more would be the next
// entry's X_0; two guards keep it out, and each is checked here. The tree
// hands every entry's prefix out capped at its width, and FarPrefix reads
// no further than the slice's length whatever room it has past it: every
// leaf entry's prefix, with a far coefficient in a spare slot, is not
// called far against a limit its own terms reach exactly — a ninth term
// would decide the dismissal — under every leaf kernel.
func TestLeafTestReadsOnlyItsPrefix(t *testing.T) {
	const n, count, seed = 64, 160, 20261020
	t.Logf("seed %d", seed)
	names, values := familyWalks(count, n, seed)
	eng := newTestEngine(t, n, 1, Options{})
	if err := eng.InsertBulk(names, values); err != nil {
		t.Fatal(err)
	}
	sh := shardsOf(eng)[0]
	for label, kc := range leafKernels(t, n) {
		p, err := sh.planRange(RangeQuery{Values: values[0], Eps: 1, Transform: kc.tr, BothSides: kc.both})
		if err != nil {
			t.Fatal(err)
		}
		k := p.kernelInto(nil)
		sh.idx.Tree().All(func(it rtree.Item) bool {
			if len(it.Pre) != relation.LeafCoeffs || cap(it.Pre) != relation.LeafCoeffs {
				t.Fatalf("id %d: the tree hands out a prefix of length %d and capacity %d, want both %d", it.ID, len(it.Pre), cap(it.Pre), relation.LeafCoeffs)
			}
			pre := append(slices.Clone(it.Pre), 1e6)[:relation.LeafCoeffs]
			_, sum := headSum(k, pre, math.Inf(1))
			lt := leafTest{k: k, limit: sum, st: &ExecStats{}}
			if terms := lt.FarPrefix(pre); terms != 0 {
				t.Fatalf("%s: id %d: the prefix test called far a prefix whose %d terms sum to its limit, after %d terms", label, it.ID, relation.LeafCoeffs, terms)
			}
			return true
		})
	}
}
