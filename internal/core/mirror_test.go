package core

// Tests for the mirror weight: the claim that a real series' first K
// spectral differences each count twice toward the full distance, the
// conditions under which they do not, and — at the exact boundary, where the
// tighter bound has no margin left — that the index still returns what a
// scan returns.

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dft"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/series"
	"repro/internal/testkit"
	"repro/internal/transform"
)

// mirrorSeed seeds the randomized suites below; it is printed for replay.
const mirrorSeed = 20260927

// randomTimeOp draws one of the real time-domain operations.
func randomTimeOp(rng *rand.Rand, n int) testkit.Op {
	switch rng.Intn(6) {
	case 0:
		return testkit.Identity(n)
	case 1:
		return testkit.Mavg(n, 1+rng.Intn(n))
	case 2:
		w := make([]float64, 1+rng.Intn(n))
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		return testkit.WeightedMavg(n, w)
	case 3:
		return testkit.Reverse(n)
	case 4:
		return testkit.Scale(n, rng.NormFloat64()*3) // either sign
	default:
		return testkit.Shift(n, rng.NormFloat64()*5)
	}
}

// randomPipeline composes one to three random operations, spectra and
// time-domain forms alike.
func randomPipeline(rng *rand.Rand, n int) testkit.Op {
	op := randomTimeOp(rng, n)
	for extra := rng.Intn(3); extra > 0; extra-- {
		op = op.Then(randomTimeOp(rng, n))
	}
	return op
}

// indexedSum is sum_{f=1..k} |a_f*X_f + b_f - Q_f|^2: what the k-index
// charges a record.
func indexedSum(tr transform.T, X, Q []complex128, k int) float64 {
	var s float64
	for f := 1; f <= k; f++ {
		d := tr.A[f]*X[f] + tr.B[f] - Q[f]
		s += real(d)*real(d) + imag(d)*imag(d)
	}
	return s
}

func randomSeries(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * 4
	}
	return x
}

// TestMirrorBoundNeverExceedsDistance is the soundness of the mirror weight
// itself, away from any index: over random real series, lengths, K and
// pipelines of real time-domain operations — one-sided and BOTH —
// w * sum_{f<=K} |a_f X_f + b_f - Q_f|^2 never exceeds the squared distance
// computed in the time domain; w is 2 for every such pipeline with 2K < n
// and 1 for every shape where a mirror is missing; and two fixtures built
// to sit exactly where a wrong w = 2 would be a false dismissal do violate
// the doubled bound. (Mutation check, recorded in CHANGES.md: forcing
// mirrorWeight to return w = 2 fails this test in all three places.)
func TestMirrorBoundNeverExceedsDistance(t *testing.T) {
	t.Logf("seed %d", mirrorSeed)
	rng := rand.New(rand.NewSource(mirrorSeed))
	for _, n := range []int{4, 5, 8, 9, 64, 256} {
		for k := 1; k <= 3; k++ {
			for trial := 0; trial < 60; trial++ {
				op := randomPipeline(rng, n)
				both := trial%2 == 1
				x, q := randomSeries(rng, n), randomSeries(rng, n)
				if trial%5 == 0 {
					// A near-duplicate: the distance is small against the
					// coefficients it is measured between.
					for i := range q {
						q[i] = x[i] + rng.NormFloat64()*1e-3
					}
				}
				target := q
				if both {
					target = op.Time(q)
				}
				label := fmt.Sprintf("n=%d K=%d %s both=%t", n, k, op.Label, both)
				dist := series.EuclideanDistance(op.Time(x), target)
				X, Q := dft.TransformReal(x), dft.TransformReal(target)

				mw := mirrorWeight(k, n, op.T)
				if lhs, rhs := mw.w*indexedSum(op.T, X, Q, k), dist*dist*(1+1e-12); lhs > rhs {
					t.Fatalf("%s: w*sum = %v (w = %v) exceeds D^2 = %v", label, lhs, mw.w, rhs)
				}
				// What the engine does with the weight: a record at distance
				// exactly eps must clear the filter.
				if r := mw.filterRadius(dist); indexedSum(op.T, X, Q, k) > r*r {
					t.Fatalf("%s: a record at distance %v falls outside filter radius %v", label, dist, r)
				}
				// And the weight is not given away: every real operation with
				// room for mirrors gets the tighter bound.
				if want := map[bool]float64{true: 2, false: 1}[2*k < n]; mw.w != want {
					t.Fatalf("%s: mirror weight %v (%s), want %v", label, mw.w, mw.why, want)
				}
			}
		}
	}

	// Shapes without the symmetry keep the paper's bound.
	for _, n := range []int{8, 64, 256} {
		for k := 1; 2*k < n && k <= 3; k++ {
			if mw := mirrorWeight(k, n, transform.Warp(n, 2)); mw.w != 1 {
				t.Fatalf("n=%d K=%d warp(2): mirror weight %v", n, k, mw.w)
			}
			a, b := make([]complex128, n), make([]complex128, n)
			for f := range a {
				a[f] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			free, err := transform.New(a, b, 0, "free")
			if err != nil {
				t.Fatal(err)
			}
			if mw := mirrorWeight(k, n, free); mw.w != 1 {
				t.Fatalf("n=%d K=%d random complex a: mirror weight %v", n, k, mw.w)
			}
			// A join is symmetric only if both of its sides are.
			if mw := mirrorWeight(k, n, transform.Identity(n), free); mw.w != 1 {
				t.Fatalf("n=%d K=%d identity/free join: mirror weight %v", n, k, mw.w)
			}
		}
	}

	// Adversarial fixture 1: n = 4, K = 2, x = q + c*(+1,-1,+1,-1). All of
	// D^2 sits on the Nyquist coefficient f = 2, which is indexed and is its
	// own mirror: counting it twice would dismiss x at eps = D.
	{
		q := []float64{3, 1, 4, 1.5}
		x := []float64{q[0] + 2, q[1] - 2, q[2] + 2, q[3] - 2}
		id := transform.Identity(4)
		dist := series.EuclideanDistance(x, q)
		sum := indexedSum(id, dft.TransformReal(x), dft.TransformReal(q), 2)
		if 2*sum <= dist*dist*(1+1e-9) {
			t.Fatalf("Nyquist fixture does not bite: 2*sum = %v, D^2 = %v", 2*sum, dist*dist)
		}
		if mw := mirrorWeight(2, 4, id); mw.w != 1 || sum > dist*dist*(1+1e-12) {
			t.Fatalf("Nyquist fixture: mirror weight %v, sum %v, D^2 %v", mw.w, sum, dist*dist)
		}
	}
	// Adversarial fixture 2: a one-sided a (a_f = 1 up to n/2, a_{n-f} = 0).
	// x differs from q on the first harmonic only and q has no energy there,
	// so the indexed term carries |X_1 - Q_1|^2 while its would-be twin is
	// |0*X - Q_{n-1}|^2 = 0.
	{
		const n = 16
		q, x := make([]float64, n), make([]float64, n)
		for i := range q {
			q[i] = math.Cos(2 * math.Pi * 3 * float64(i) / n)
			x[i] = q[i] + 5*math.Cos(2*math.Pi*float64(i)/n+0.3)
		}
		a, b := make([]complex128, n), make([]complex128, n)
		for f := 0; f <= n/2; f++ {
			a[f] = 1
		}
		half, err := transform.New(a, b, 0, "half")
		if err != nil {
			t.Fatal(err)
		}
		X, Q := dft.TransformReal(x), dft.TransformReal(q)
		// T(x) is complex: its distance to q in time is the norm of the
		// inverse transform of (a*X - Q), term by term.
		diff := make([]complex128, n)
		for f := range diff {
			diff[f] = a[f]*X[f] - Q[f]
		}
		var distSq float64
		for _, d := range dft.Inverse(diff) {
			distSq += real(d)*real(d) + imag(d)*imag(d)
		}
		sum := indexedSum(half, X, Q, 1)
		if 2*sum <= distSq*(1+1e-9) {
			t.Fatalf("one-sided fixture does not bite: 2*sum = %v, D^2 = %v", 2*sum, distSq)
		}
		if mw := mirrorWeight(1, n, half); mw.w != 1 || sum > distSq*(1+1e-12) {
			t.Fatalf("one-sided fixture: mirror weight %v, sum %v, D^2 %v", mw.w, sum, distSq)
		}
	}
}

// ---- the boundary ----

// boundaryLen is the series length of the boundary store.
const boundaryLen = 64

// boundaryData builds 200 series in four families: random walks; exact
// copies of some of them under other names (every distance to a copy ties
// with the distance to its original); and first-harmonic twins
// (dataset.HarmonicTwin), whose normal form differs from their walk's on
// coefficients 1 and n-1 alone, so 2 * (the indexed partial distance)
// equals the full squared distance: the mirror-weighted bound holds with
// equality, under the identity and under any moving average of both. The
// offset steers how far the twin sits, from ~1 down to ~1e-4, where the
// distance is five orders of magnitude below the coefficients it is taken
// between.
func boundaryData(rng *rand.Rand) (names []string, values [][]float64) {
	add := func(name string, v []float64) {
		names, values = append(names, name), append(values, v)
	}
	const walks = 80
	for i := 0; i < walks; i++ {
		add(fmt.Sprintf("W%03d", i), dataset.RandomWalk(rng, boundaryLen))
	}
	for i := 0; i < 40; i++ {
		add(fmt.Sprintf("C%03d", i), append([]float64(nil), values[2*i]...))
	}
	for i := 0; len(values) < 200; i++ {
		twin := dataset.HarmonicTwin(values[i%walks], []float64{1, 1e-2, 1e-4}[i%3])
		add(fmt.Sprintf("T%03d", i), twin)
	}
	return names, values
}

// boundarySpec is one transformation of the boundary suite.
type boundarySpec struct {
	label string
	op    testkit.Op
	both  bool
}

// TestMirrorBoundaryParity is what justifies the mirror slack and the
// symmetry tolerance: for each of 200 stored subjects, eps is set to the
// very distance verifyFreq reports for one of its neighbours — so that
// neighbour sits on the boundary to the last bit — and the index must
// return exactly what the scan returns, and both what a time-domain brute
// force returns (up to the boundary's own rounding); and an NN whose k-th
// and (k+1)-th neighbours tie exactly must pick the same k through the
// index as through the scan. At shards 1 and 4, resident and disk-backed,
// under the identity and under mavg BOTH. Half the subjects choose the
// neighbour that makes the bound tight: their own first-harmonic twin.
func TestMirrorBoundaryParity(t *testing.T) {
	boundarySuite(t, func(t *testing.T, eng Engine, names []string, values [][]float64) {
		if err := eng.InsertBulk(names, values); err != nil {
			t.Fatal(err)
		}
	})
}

// boundarySuite runs the boundary checks over boundaryData at shards 1 and
// 4, resident and disk-backed, on stores that fill brings to that data.
func boundarySuite(t *testing.T, fill func(t *testing.T, eng Engine, names []string, values [][]float64)) {
	t.Logf("seed %d", mirrorSeed)
	names, values := boundaryData(rand.New(rand.NewSource(mirrorSeed)))
	pos := positions(names)
	specs := []boundarySpec{
		{"identity", testkit.Identity(boundaryLen), false},
		{"mavg BOTH", testkit.Mavg(boundaryLen, 5), true},
	}
	for _, shards := range []int{1, 4} {
		for _, disk := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/disk=%t", shards, disk), func(t *testing.T) {
				opts := Options{}
				if disk {
					opts.Backing, opts.CachePages = t.TempDir(), 8
				}
				eng := newTestEngine(t, boundaryLen, shards, opts)
				fill(t, eng, names, values)
				tight := 0
				for _, sp := range specs {
					for si, subject := range names {
						tight += boundarySubject(t, eng, sp, values, pos, si, subject)
					}
				}
				// Forty walks per transformation put their twin on the boundary.
				if tight < 80 {
					t.Fatalf("only %d boundaries had the bound within 1e-9 of equality: the twins no longer exercise the slack", tight)
				}
			})
		}
	}
}

// boundarySubject runs the boundary checks for one subject and reports
// whether its range boundary was a tight one (2 * partial within 1e-9 of the
// full squared distance).
func boundarySubject(t *testing.T, eng Engine, sp boundarySpec, values [][]float64, pos map[string]int, si int, subject string) (tight int) {
	t.Helper()
	label := fmt.Sprintf("%q subject %s", sp.label, subject)
	q := values[pos[subject]]
	id, _ := eng.IDByName(subject)
	var prep *QueryPrep
	if si%2 == 0 { // by name, through the stored-record fast path, or raw
		prep, _ = eng.QueryPrep(id)
	}
	rq := RangeQuery{Values: q, Transform: sp.op.T, BothSides: sp.both, Prep: prep}

	ranked := testkit.Rank(values, q, sp.op, sp.both) // brute force, in the time domain

	// The neighbour on the boundary: the subject's own twin where it has
	// one, otherwise whichever neighbour ranks (si mod 9)+2 in a scan.
	all, _, err := forcedNN(eng, NNQuery{Values: q, K: len(values), Transform: sp.op.T, BothSides: sp.both, Prep: prep}, plan.ScanFreq)
	if err != nil {
		t.Fatal(err)
	}
	neighbour := all[si%9+2].Name
	twin := "T" + subject[1:]
	if _, ok := pos[twin]; ok && subject[0] == 'W' && si%2 == 1 {
		neighbour = twin
	}
	rq.Eps = math.Inf(1)
	eps, _, err := eng.CheckWithin(neighbour, rq)
	if err != nil {
		t.Fatal(err)
	}
	rq.Eps = eps
	if eps > 0 {
		// How tight is the bound here? The neighbour's indexed partial
		// distance against eps^2.
		np, _ := pointOf(eng, mustID(t, eng, neighbour))
		p, err := shardsOf(eng)[0].planRange(rq) // every shard plans alike
		if err != nil {
			t.Fatal(err)
		}
		tp := np
		if !p.m.Identity() {
			tp = p.m.ApplyPoint(np)
		}
		var partial float64
		qc := eng.Schema().Coeffs(p.qp)
		for i, c := range eng.Schema().Coeffs(tp) {
			d := c - qc[i]
			partial += real(d)*real(d) + imag(d)*imag(d)
		}
		if math.Abs(2*partial/(eps*eps)-1) < 1e-9 {
			tight = 1
		}
	}

	idx, _, err := forcedRange(eng, rq, plan.Index)
	if err != nil {
		t.Fatal(err)
	}
	scan, _, err := forcedRange(eng, rq, plan.ScanFreq)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(idx) != fmt.Sprint(scan) {
		t.Fatalf("%s eps=%v (the distance to %s): index answers\n %v\nscan answers\n %v", label, eps, neighbour, idx, scan)
	}
	// The brute force decides everyone who is not on the boundary.
	if err := testkit.CheckRange(ranked, hitsOf(idx, pos), eps, 0, 1e-9*(1+eps)); err != nil {
		t.Fatalf("%s eps=%v: %v", label, eps, err)
	}

	// NN with an exact tie across the cut: every copy ties with its
	// original, so cutting the scan's ranking between the two makes the
	// k-th and (k+1)-th distances equal.
	k := 0
	for i := 1; i < len(all); i++ {
		if all[i].Dist == all[i-1].Dist && all[i].Dist > 0 {
			k = i
			break
		}
	}
	if k == 0 {
		t.Fatalf("%s: no tie in the ranking", label)
	}
	nq := NNQuery{Values: q, K: k, Transform: sp.op.T, BothSides: sp.both, Prep: prep}
	nnIdx, _, err := forcedNN(eng, nq, plan.Index)
	if err != nil {
		t.Fatal(err)
	}
	if want := all[:k]; fmt.Sprint(nnIdx) != fmt.Sprint(want) {
		t.Fatalf("%s k=%d (tie at %v): index answers\n %v\nscan ranks\n %v", label, k, all[k].Dist, nnIdx, want)
	}
	if err := testkit.CheckApproxNN(ranked, hitsOf(nnIdx, pos), k, 0, 1e-9*(1+all[k].Dist)); err != nil {
		t.Fatalf("%s k=%d: %v", label, k, err)
	}
	return tight
}

func mustID(t *testing.T, eng Engine, name string) int64 {
	t.Helper()
	id, ok := eng.IDByName(name)
	if !ok {
		t.Fatalf("no series %s", name)
	}
	return id
}

// ---- w = 1 is the paper's filter ----

// TestMirrorWeightOneIsThePapersFilter: where the symmetry is missing — a
// warped query, a one-sided complex stretch, a store with 2K >= n — plans
// get w = 1 and run the paper's filter untouched: a range query's
// candidates and node accesses are those of the k-index searched at eps
// itself; an NN finds the brute-force answer, visits exactly the nodes of a
// walk told to stop at partial > kth^2, and verifies at least the items that
// walk counts (countNear's floor: every item within the paper's bound at the
// final k-th distance).
func TestMirrorWeightOneIsThePapersFilter(t *testing.T) {
	t.Logf("seed %d", mirrorSeed)
	rng := rand.New(rand.NewSource(mirrorSeed))
	const count = 400
	build := func(length int) (*DB, [][]float64) {
		names, values := make([]string, count), make([][]float64, count)
		for i := range values {
			names[i], values[i] = fmt.Sprintf("S%03d", i), dataset.RandomWalk(rng, length)
		}
		db := newTestEngine(t, length, 1, Options{}).(*DB)
		if err := db.InsertBulk(names, values); err != nil {
			t.Fatal(err)
		}
		return db, values
	}
	long, longVals := build(32)
	short, shortVals := build(4) // K = 2: coefficient 2 is the Nyquist term

	// A stretch by e^{i*theta_f}: safe in S_pol, but not the spectrum of any
	// real operation (a_{n-f} != conj(a_f)).
	spin := make([]complex128, 32)
	for f := range spin {
		spin[f] = cmplx.Rect(1, 0.1*float64(f))
	}
	lopsided, err := transform.New(spin, make([]complex128, 32), 0, "spin")
	if err != nil {
		t.Fatal(err)
	}
	type probe struct {
		label string
		db    *DB
		vals  [][]float64
		rq    RangeQuery
		why   string
	}
	var probes []probe
	for i := 0; i < 12; i++ {
		probes = append(probes,
			probe{"warp", long, longVals, RangeQuery{Values: series.Warp(longVals[i], 2), Eps: 6, Transform: transform.Warp(32, 2), WarpFactor: 2}, mirrorLopsided.why},
			probe{"spin", long, longVals, RangeQuery{Values: longVals[i], Eps: 5, Transform: lopsided}, mirrorLopsided.why},
			probe{"2K>=n", short, shortVals, RangeQuery{Values: shortVals[i], Eps: 0.4, Transform: transform.Identity(4)}, mirrorShort.why},
		)
	}
	extra, floor := 0, 0
	for _, pr := range probes {
		db, sh := pr.db, pr.db.only()
		p, err := sh.planRange(pr.rq)
		if err != nil {
			t.Fatal(err)
		}
		if p.mw.w != 1 || p.mw.why != pr.why || p.mw.filterRadius(pr.rq.Eps) != pr.rq.Eps {
			t.Fatalf("%s: mirror %+v, filter radius %v for eps %v", pr.label, p.mw, p.mw.filterRadius(pr.rq.Eps), pr.rq.Eps)
		}
		_, st, err := forcedRange(db, pr.rq, plan.Index)
		if err != nil {
			t.Fatal(err)
		}
		var sc index.Scratch
		ids, search := sh.idx.RangeIDs(p.qp, pr.rq.Eps, p.m, pr.rq.Moments, true, &sc, nil)
		if st.Candidates != len(ids) || st.NodeAccesses != search.NodesVisited || len(ids) == 0 {
			t.Fatalf("%s range: %d candidates over %d nodes, the k-index at eps gives %d over %d",
				pr.label, st.Candidates, st.NodeAccesses, len(ids), search.NodesVisited)
		}
		if pr.rq.WarpFactor >= 2 {
			continue // the reference visitor below verifies in the frequency domain
		}
		nq := NNQuery{Values: pr.rq.Values, K: 7, Transform: pr.rq.Transform}
		got, nst, err := forcedNN(db, nq, plan.Index)
		if err != nil {
			t.Fatal(err)
		}
		ranked := testkit.Rank(pr.vals, nq.Values, testkit.Spectral(nq.Transform), false)
		if err := testkit.CheckApproxNN(ranked, hitsOf(got, nil), nq.K, 0, 1e-9*(1+ranked[nq.K].Dist)); err != nil {
			t.Fatalf("%s NN: %v", pr.label, err)
		}
		np, err := sh.planNN(nq)
		if err != nil {
			t.Fatal(err)
		}
		if kth := got[len(got)-1].Dist; np.stopLine(kth) != kth*kth {
			t.Fatalf("%s NN: stop line %v at the k-th distance %v, not its square", pr.label, np.stopLine(kth), kth)
		}
		ar := getArena()
		cand, nodes := sh.countNear(np, ar, got[len(got)-1].Dist)
		putArena(ar)
		if len(got) != nq.K || nst.Candidates < cand || nst.NodeAccesses != nodes {
			t.Fatalf("%s NN: %d answers, %d candidates over %d nodes; the walk told the final k-th distance counts %d over %d",
				pr.label, len(got), nst.Candidates, nst.NodeAccesses, cand, nodes)
		}
		extra, floor = extra+nst.Candidates-cand, floor+cand
	}
	t.Logf("NN verified %d candidates beyond the floor of %d over %d probes", extra, floor, 2*len(probes)/3)
}
