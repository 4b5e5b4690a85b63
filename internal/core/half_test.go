package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/plan"
	"repro/internal/testkit"
	"repro/internal/transform"
)

// halfCase is one transformation the half-spectrum parity suite runs, in
// the oracle's two forms, and whether a query is mapped through it too.
type halfCase struct {
	label string
	op    testkit.Op
	both  bool
}

// halfCases are the identity, a moving average applied to both sides, a
// scaling, and a stretch whose twins differ in modulus and phase
// (a_{n-f} != conj(a_f)), so its twin terms are not copies of the terms at
// f: the conjugate path of every kernel, exercised.
func halfCases(t *testing.T, n int) []halfCase {
	t.Helper()
	a := make([]complex128, n)
	for f := range a {
		a[f] = cmplx.Rect(1+0.3*math.Sin(float64(f)), 0.1*float64(f))
	}
	lopsided, err := transform.New(a, make([]complex128, n), 0, "lopsided")
	if err != nil {
		t.Fatal(err)
	}
	if n > 4 && lopsided.A[n-1] == cmplx.Conj(lopsided.A[1]) {
		t.Fatal("the lopsided stretch has a conjugate twin")
	}
	// The lopsided stretch is no real operation: the oracle measures the
	// complex series its spectrum describes, over the full n coefficients.
	return []halfCase{
		{"identity", testkit.Identity(n), false},
		{"mavg BOTH", testkit.Mavg(n, min(7, n)), true},
		{"scale", testkit.Scale(n, -1.5), false},
		{"lopsided", testkit.Spectral(lopsided), false},
	}
}

// TestHalfSpectrumParity: a store that keeps ⌊n/2⌋+1 coefficients of every
// spectrum answers every query kind — range, NN, the monitors' single-series
// check, self join and two-sided join — as a brute force over the full
// spectrum in the time domain does, within 1e-9, under symmetric and
// lopsided transformations alike; and the index answers exactly what the
// scan answers. Even, odd and tiny lengths (64, 63, 5: with and without a
// Nyquist coefficient, and shorter than the resident head), at shards 1 and
// 4, resident and disk-backed.
func TestHalfSpectrumParity(t *testing.T) {
	const (
		count = 36
		tol   = 1e-9
	)
	seed := int64(20261015)
	t.Logf("seed %d", seed)
	for _, n := range []int{64, 63, 5} {
		for _, shards := range []int{1, 4} {
			for _, disk := range []bool{false, true} {
				t.Run(fmt.Sprintf("n=%d/shards=%d/disk=%t", n, shards, disk), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed + int64(n)))
					// Families of near-duplicates, so small thresholds have
					// answers.
					names, values := make([]string, count), make([][]float64, count)
					for i := range values {
						names[i] = fmt.Sprintf("H%02d", i)
						if i%3 == 0 {
							values[i] = dataset.RandomWalk(rng, n)
							continue
						}
						values[i] = make([]float64, n)
						for j, v := range values[i-i%3] {
							values[i][j] = v + rng.NormFloat64()*0.3
						}
					}
					opts := Options{PageSize: 256}
					if disk {
						opts.Backing, opts.CachePages = t.TempDir(), 4
					}
					eng := newTestEngine(t, n, shards, opts)
					if err := eng.InsertBulk(names, values); err != nil {
						t.Fatal(err)
					}
					for _, c := range halfCases(t, n) {
						checkHalfReads(t, eng, c, names, values, rng, tol)
						checkHalfJoins(t, eng, c, names, values, tol)
					}
				})
			}
		}
	}
}

// cut returns a threshold no distance comes within 1e-6 of, so no answer
// sits on the boundary, and how many of the sorted distances it admits: k,
// or more where the k-th ties with the next (mavg(5) at n = 5 maps every
// normal form to zero).
func cut(sorted []float64, k int) (eps float64, admitted int) {
	for k < len(sorted) && sorted[k]-sorted[k-1] < 1e-6 {
		k++
	}
	if k == len(sorted) {
		return sorted[k-1] + 1, k
	}
	return (sorted[k-1] + sorted[k]) / 2, k
}

func checkHalfReads(t *testing.T, eng Engine, c halfCase, names []string, values [][]float64, rng *rand.Rand, tol float64) {
	t.Helper()
	subject := rng.Intn(len(values))
	q := append([]float64(nil), values[subject]...)
	for i := range q {
		q[i] += rng.NormFloat64() * 0.1
	}
	ranked := testkit.Rank(values, q, c.op, c.both)
	var sorted []float64
	for _, h := range ranked {
		sorted = append(sorted, h.Dist)
	}
	eps, want := cut(sorted, 6)
	pos := positions(names)
	label := fmt.Sprintf("%s subject %s", c.label, names[subject])

	rq := RangeQuery{Values: q, Eps: eps, Transform: c.op.T, BothSides: c.both}
	idx, _, err := forcedRange(eng, rq, plan.Index)
	if err != nil {
		t.Fatalf("%s range: %v", label, err)
	}
	scan, _, err := forcedRange(eng, rq, plan.ScanFreq)
	if err != nil {
		t.Fatalf("%s range scan: %v", label, err)
	}
	if !reflect.DeepEqual(idx, scan) {
		t.Errorf("%s: range index answers\n %v\nscan\n %v", label, idx, scan)
	}
	if err := testkit.CheckRange(ranked, hitsOf(idx, pos), eps, 0, tol); err != nil || len(idx) != want {
		t.Errorf("%s: range answers %d series, brute force %d: %v", label, len(idx), want, err)
	}

	// The monitors' check, series by series.
	for _, h := range ranked {
		name := names[h.I]
		dist, within, err := eng.CheckWithin(name, rq)
		if err != nil {
			t.Fatal(err)
		}
		if d := h.Dist; within != (d <= eps) || (within && math.Abs(dist-d) > tol) {
			t.Errorf("%s: CheckWithin(%s) = %.12f, %t; brute force %.12f at eps %.12f", label, name, dist, within, d, eps)
		}
	}

	nq := NNQuery{Values: q, K: 5, Transform: c.op.T, BothSides: c.both}
	nnIdx, _, err := forcedNN(eng, nq, plan.Index)
	if err != nil {
		t.Fatalf("%s nn: %v", label, err)
	}
	nnScan, _, err := forcedNN(eng, nq, plan.ScanFreq)
	if err != nil {
		t.Fatalf("%s nn scan: %v", label, err)
	}
	if !reflect.DeepEqual(nnIdx, nnScan) {
		t.Errorf("%s: NN index answers\n %v\nscan\n %v", label, nnIdx, nnScan)
	}
	// By distance, not name: ties may rank either way.
	if err := testkit.CheckApproxNN(ranked, hitsOf(nnIdx, pos), nq.K, 0, tol); err != nil {
		t.Errorf("%s: NN: %v", label, err)
	}
}

func checkHalfJoins(t *testing.T, eng Engine, c halfCase, names []string, values [][]float64, tol float64) {
	t.Helper()
	mavg := testkit.Mavg(eng.Length(), min(3, eng.Length()))
	for _, jc := range []struct {
		kind  string
		q     JoinQuery
		k     int
		pairs []testkit.Pair
	}{
		{"selfjoin", JoinQuery{Left: c.op.T, Right: c.op.T}, 8, testkit.SelfJoin(values, c.op)},
		{"join", JoinQuery{Left: c.op.T, Right: mavg.T, TwoSided: true}, 6, testkit.Join(values, c.op, mavg)},
	} {
		var sorted []float64
		for _, p := range jc.pairs {
			sorted = append(sorted, p.Dist)
		}
		var want int
		jc.q.Eps, want = cut(sorted, jc.k)
		label := fmt.Sprintf("%s %s", c.label, jc.kind)

		var answers [2][]JoinPair
		for i, want := range []plan.Strategy{plan.Index, plan.ScanFreq} {
			pl, err := eng.PlanJoin(jc.q, want)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if answers[i], _, err = eng.ExecJoin(jc.q, pl); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		idx, scan := answers[0], answers[1]
		if len(idx) != want || len(scan) != want {
			t.Errorf("%s: index answers %d pairs, scan %d, brute force %d", label, len(idx), len(scan), want)
			continue
		}
		for i := range idx {
			if idx[i].A != scan[i].A || idx[i].B != scan[i].B || math.Abs(idx[i].Dist-scan[i].Dist) > tol {
				t.Errorf("%s: pair %d is %+v by the index, %+v by the scan", label, i, idx[i], scan[i])
			}
		}
		if err := testkit.CheckJoin(jc.pairs, pairsOf(eng, idx, positions(names)), jc.q.Eps, tol); err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}
}
