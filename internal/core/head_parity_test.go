package core

// Parity and property tests for the resident spectrum heads. Verification
// reads a record's first relation.HeadCoeffs coefficients from a slab the
// frequency relation keeps beside its pages, and opens the pages only past
// them; these tests exist to fail the moment the slab and the pages
// disagree, or the filter changes an answer or a count:
//
//   - every query kind answers like an O(n) brute force in the time domain;
//   - every range/NN/join execution returns the same Matches, Candidates,
//     NodeAccesses and DistanceTerms as a reference walk (below, test-only)
//     that decodes every term, the first sixteen included, from the page;
//   - every stored head equals the head of its record's pages, bit for bit,
//     and every k-index leaf entry's prefix the head's first
//     relation.LeafCoeffs coefficients;
//
// over random stores x transforms, at shards 1 and 4, resident and
// disk-backed behind a pool of a tenth of the pages, before and after an
// interleaving of appends, deletes,
// updates and inserts, a compaction, and snapshot round trips in every
// format at the same and at a different shard count. Lengths 4 and 8 store
// halves of 3 and 5 coefficients, shorter than the head: every record lies
// inside it. Seeds are printed for replay.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/feature"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/rtree"
	"repro/internal/series"
	"repro/internal/testkit"
	"repro/internal/transform"
)

// headSlack absorbs the float jitter between frequency-domain distances
// and the time-domain brute force.
const headSlack = 1e-6

// headSpec is one transformation under test, in the oracle's two forms.
type headSpec struct {
	label   string
	op      testkit.Op
	both    bool
	moments bool
	delta   float64
}

func headSpecs(n int) []headSpec {
	ident, mavg := testkit.Identity(n), testkit.Mavg(n, min(5, n/2))
	return []headSpec{
		{label: "identity", op: ident},
		{label: "mavg", op: mavg},
		{label: "reverse|mavg", op: testkit.Reverse(n).Then(mavg)},
		{label: "mavg BOTH", op: mavg, both: true},
		{label: "identity moments", op: ident, moments: true},
		{label: "identity APPROX 0.1", op: ident, delta: 0.1},
		{label: "mavg BOTH APPROX 0.25", op: mavg, both: true, delta: 0.25},
	}
}

// headStore is one store under test and the test's own record of what it
// holds.
type headStore struct {
	label string
	eng   Engine
	live  testkit.Live
	fresh int // names handed to churn's inserts
}

// churn runs the seeded churn script on the store, keeping live in step.
func (hs *headStore) churn(t *testing.T, n int, rng *rand.Rand, steps int) {
	t.Helper()
	c := testkit.Churn[Committed]{N: n, Rand: rng, Live: hs.live, Fresh: hs.fresh}
	c.Run(t, hs.eng, steps)
	hs.fresh = c.Fresh
}

func (hs *headStore) dbs() []*shard { return shardsOf(hs.eng) }

// soloStore views one shard as a one-shard store of its own: the reference
// walks compare shard by shard, where the work counters are a function of
// the query alone. Read-only.
func soloStore(sh *shard) *Store {
	s := &Store{
		length: sh.length,
		shards: []*shard{sh},
		owner:  make(map[int64]int),
		idPos:  make(map[int64]int),
	}
	for _, id := range sh.ids {
		s.register(id, 0)
	}
	return s
}

// ---- the reference walk: every term from the page ----

// pageOnlyView opens a record the way every distance loop did before the
// heads existed: with no resident prefix, so the first term already
// decodes from the record's pages.
func pageOnlyView(t *testing.T, db *shard, id int64) relation.View {
	t.Helper()
	rv, err := db.freqRel.View(id)
	if err != nil {
		t.Fatal(err)
	}
	return rv
}

// pageOnlySpectrum decodes every stored coefficient of a record — the half
// spectrum, n/2+1 of them — the reference way.
func pageOnlySpectrum(t *testing.T, db *shard, id int64) []complex128 {
	t.Helper()
	rv := pageOnlyView(t, db, id)
	cur, err := db.pinTail(rv, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer db.freqRel.ReleaseView(rv)
	out := make([]complex128, halfLen(db.length))
	for f := range out {
		out[f] = cur.Next()
	}
	return out
}

// refVerify is verifyFreq over a page-only view: the same kernel, so the
// same twin terms (a stored coefficient's and its mirror's) in the same
// order.
func refVerify(t *testing.T, db *shard, k []twin, id int64, eps float64, st *ExecStats) (within bool, dist float64) {
	t.Helper()
	x := pageOnlySpectrum(t, db, id)
	limit := eps * eps
	var sum float64
	for f := range k {
		sum += k[f].term(x[f])
		if sum > limit {
			st.DistanceTerms += int64(f + 1)
			return false, 0
		}
	}
	st.DistanceTerms += int64(len(k))
	return true, math.Sqrt(sum)
}

// refRange is rangeIndexedInto / rangeScanFreqInto over page-only views.
func refRange(t *testing.T, db *shard, q RangeQuery, scan bool) ([]Result, ExecStats) {
	t.Helper()
	p, err := db.planRange(q)
	if err != nil {
		t.Fatal(err)
	}
	var st ExecStats
	ids := db.ids
	if !scan {
		var sc index.Scratch
		// The plan's filter radius, not Eps: the reference pins the work of
		// the filter the engine runs (eps/√2 under a mirror-symmetric
		// transformation), and the filter is not what this suite varies.
		// The leaf prefix test is the engine's own (leafTest): it reads the
		// leaf's copy of the head, which checkHeads holds to the pages.
		far := &leafTest{k: p.kernelInto(nil), limit: q.Eps * q.Eps, st: &st}
		found, search := db.idx.RangeIDsTested(p.qp, p.mw.filterRadius(q.Eps), p.m, q.Moments, true, far, &sc, nil)
		ids, st.NodeAccesses = found, search.NodesVisited
	}
	var out []Result
	k := p.kernelInto(nil)
	for _, id := range ids {
		st.Candidates++
		if within, dist := refVerify(t, db, k, id, q.Eps, &st); within {
			out = append(out, Result{ID: id, Name: db.name(id), Dist: dist})
		}
	}
	sortResults(out)
	return out, st
}

// refNNVisit is nnVisit over page-only views.
type refNNVisit struct {
	t    *testing.T
	db   *shard
	p    *rangePlan
	k    []twin
	best *topK
	st   *ExecStats
	lt   *leafTest
}

// NearBound, FarPrefix, VisitFar and VisitNear stop where nnVisit stops —
// same mirror weight, same push bound, an item past it not a candidate — so
// the reference walk visits the same nodes and verifies the same items.
func (v *refNNVisit) NearBound() float64 {
	return v.p.stopLine(v.best.threshold())
}

func (v *refNNVisit) FarPrefix(pre []complex128) int { return v.lt.FarPrefix(pre) }

func (v *refNNVisit) VisitFar(items, terms int) { v.lt.VisitFar(items, terms) }

func (v *refNNVisit) VisitNear(id int64, partialDistSq float64) bool {
	eps := v.best.threshold()
	if partialDistSq > v.NearBound() {
		return true
	}
	v.st.Candidates++
	if within, dist := refVerify(v.t, v.db, v.k, id, eps, v.st); within {
		v.best.offer(Result{ID: id, Name: v.db.name(id), Dist: dist})
	}
	return true
}

// refNN is nnIndexedArena / nnScanArena over page-only views.
func refNN(t *testing.T, db *shard, q NNQuery, scan bool) ([]Result, ExecStats) {
	t.Helper()
	p, err := db.planNN(q)
	if err != nil {
		t.Fatal(err)
	}
	var st ExecStats
	v := &refNNVisit{t: t, db: db, p: p, k: p.kernelInto(nil), best: newTopK(q.K), st: &st}
	if scan {
		for _, id := range db.ids {
			st.Candidates++
			if within, dist := refVerify(t, db, v.k, id, v.best.threshold(), &st); within {
				v.best.offer(Result{ID: id, Name: db.name(id), Dist: dist})
			}
		}
	} else {
		v.lt = &leafTest{k: v.k, best: v.best, st: &st}
		var sc index.Scratch
		st.NodeAccesses = db.idx.NearestIDs(p.qp, p.m, &sc, v).NodesVisited
	}
	return v.best.appendResults(nil), st
}

// refJoin is joinScanFan (early abandoning) / joinIndexFan over
// page-only views.
func refJoin(t *testing.T, db *shard, jq JoinQuery, scan, selfOnce bool) ([]JoinPair, ExecStats) {
	t.Helper()
	jp, err := db.planJoin(jq)
	if err != nil {
		t.Fatal(err)
	}
	var (
		st  ExecStats
		out []JoinPair
	)
	limit := jq.Eps * jq.Eps
	// pairDist is innerSpec.pairDist with early abandoning.
	pairDist := func(k []twin, inner int64) (float64, bool) {
		y := pageOnlySpectrum(t, db, inner)
		var sum float64
		for f := range k {
			sum += k[f].term(y[f])
			st.DistanceTerms++
			if sum > limit {
				return sum, false
			}
		}
		return sum, true
	}
	if scan {
		for i, oid := range db.ids {
			X, err := db.spectrum(nil, oid)
			if err != nil {
				t.Fatal(err)
			}
			self := kernel(nil, jq.Left, jq.Left, X)
			ij, ji := kernel(nil, jq.Right, jq.Left, X), kernel(nil, jq.Left, jq.Right, X)
			for _, iid := range db.ids[i+1:] {
				if !jq.TwoSided {
					st.Candidates++
					if sum, ok := pairDist(self, iid); ok {
						out = append(out, orderedPair(oid, iid, math.Sqrt(sum)))
					}
					continue
				}
				st.Candidates += 2
				if sum, ok := pairDist(ij, iid); ok {
					out = append(out, JoinPair{A: oid, B: iid, Dist: math.Sqrt(sum)})
				}
				if sum, ok := pairDist(ji, iid); ok {
					out = append(out, JoinPair{A: iid, B: oid, Dist: math.Sqrt(sum)})
				}
			}
		}
		sortPairs(out)
		return out, st
	}
	for _, qid := range db.ids {
		tq := db.rec(qid).point
		if !jp.rm.Identity() {
			tq = jp.rm.ApplyPoint(tq)
		}
		X, err := db.spectrum(nil, qid)
		if err != nil {
			t.Fatal(err)
		}
		k := kernel(nil, jq.Left, jq.Right, X)
		var sc index.Scratch
		cands, search := db.idx.RangeIDs(tq, jp.radius, jp.lm, feature.MomentBounds{}, true, &sc, nil)
		st.NodeAccesses += search.NodesVisited
		for _, id := range cands {
			if id == qid || (selfOnce && id < qid) {
				continue
			}
			st.Candidates++
			if within, dist := refVerify(t, db, k, id, jq.Eps, &st); within {
				if jq.TwoSided {
					out = append(out, JoinPair{A: id, B: qid, Dist: dist})
				} else {
					out = append(out, JoinPair{A: qid, B: id, Dist: dist})
				}
			}
		}
	}
	sortPairs(out)
	return out, st
}

// sameWork requires an execution to have done exactly the reference's
// work: the filter sits after the index and reads the same terms in the
// same order, so nothing but page traffic may differ.
func sameWork(t *testing.T, label string, got, want ExecStats) {
	t.Helper()
	if got.Candidates != want.Candidates || got.NodeAccesses != want.NodeAccesses ||
		got.DistanceTerms != want.DistanceTerms || got.LeafResolved != want.LeafResolved {
		t.Errorf("%s: work differs from the page-only reference walk:\n got candidates %d nodes %d terms %d leaf %d\nwant candidates %d nodes %d terms %d leaf %d",
			label, got.Candidates, got.NodeAccesses, got.DistanceTerms, got.LeafResolved,
			want.Candidates, want.NodeAccesses, want.DistanceTerms, want.LeafResolved)
	}
	if got.HeadResolved < 0 || got.HeadResolved > got.Candidates || got.LeafResolved > got.HeadResolved {
		t.Errorf("%s: %d of %d candidates resolved in the head, %d in the leaf", label, got.HeadResolved, got.Candidates, got.LeafResolved)
	}
}

// ---- the checks ----

// checkHeads is the property itself: every record's resident head is the
// head of its pages.
func (hs *headStore) checkHeads(t *testing.T) {
	t.Helper()
	for si, db := range hs.dbs() {
		// The head is the first sixteen stored coefficients: sixteen
		// distinct frequencies now that a record is the half spectrum (it
		// was eight and their mirrors), and all of a short one.
		want := min(halfLen(db.length), relation.HeadCoeffs)
		for _, id := range db.ids {
			rv, err := db.freqRel.View(id)
			if err != nil {
				t.Fatal(err)
			}
			if len(rv.Head) != want {
				t.Fatalf("%s shard %d: %s has a head of %d coefficients, want %d", hs.label, si, db.name(id), len(rv.Head), want)
			}
			pages, err := db.freqRel.ViewPagesInto(rv, nil)
			if err != nil {
				t.Fatal(err)
			}
			cur := relation.CursorAt(pages, db.freqRel.PageSize(), 0)
			for f, h := range rv.Head {
				if p := cur.Next(); p != h {
					t.Fatalf("%s shard %d: %s coefficient %d: head %v, page %v", hs.label, si, db.name(id), f, h, p)
				}
			}
			db.freqRel.ReleaseView(rv)
		}
		hs.checkLeafPrefixes(t, si, db)
	}
}

// checkLeafPrefixes: every k-index leaf entry carries its record's first
// relation.LeafCoeffs stored coefficients, bit for bit the head's, zero past
// a record shorter than that — whichever write path put the entry there.
func (hs *headStore) checkLeafPrefixes(t *testing.T, si int, db *shard) {
	t.Helper()
	if err := db.idx.Tree().CheckInvariants(); err != nil {
		t.Fatalf("%s shard %d: %v", hs.label, si, err)
	}
	entries := 0
	db.idx.Tree().All(func(it rtree.Item) bool {
		entries++
		rv, err := db.freqRel.View(it.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(it.Pre) != relation.LeafCoeffs {
			t.Fatalf("%s shard %d: %s carries a prefix of %d coefficients, want %d", hs.label, si, db.name(it.ID), len(it.Pre), relation.LeafCoeffs)
		}
		for f, x := range it.Pre {
			var h complex128
			if f < len(rv.Head) {
				h = rv.Head[f]
			}
			if math.Float64bits(real(x)) != math.Float64bits(real(h)) || math.Float64bits(imag(x)) != math.Float64bits(imag(h)) {
				t.Fatalf("%s shard %d: %s coefficient %d: leaf %v, head %v", hs.label, si, db.name(it.ID), f, x, h)
			}
		}
		return true
	})
	if entries != len(db.ids) {
		t.Fatalf("%s shard %d: %d leaf entries for %d series", hs.label, si, entries, len(db.ids))
	}
}

// checkQueries runs every spec against the store: brute force on the whole
// engine, the reference walk on each shard's DB.
func (hs *headStore) checkQueries(t *testing.T, n int, rng *rand.Rand) {
	t.Helper()
	names, values := hs.live.Sorted()
	pos := positions(names)
	const k = 5
	for _, sp := range headSpecs(n) {
		// The query is a stored series — by name, through the stored-record
		// fast path — or a perturbed copy of one as a raw vector.
		subject := names[rng.Intn(len(names))]
		q := append([]float64(nil), hs.live[subject]...)
		var prep *QueryPrep
		if rng.Intn(2) == 0 {
			id, _ := hs.eng.IDByName(subject)
			prep, _ = hs.eng.QueryPrep(id)
		} else {
			for i := range q {
				q[i] += rng.NormFloat64() * 0.2
			}
		}
		ranked := testkit.Rank(values, q, sp.op, sp.both)
		// A threshold between the 6th and 7th nearest, so no answer sits on
		// the boundary.
		cut := min(6, len(ranked)-1)
		eps := (ranked[cut-1].Dist + ranked[cut].Dist) / 2
		label := fmt.Sprintf("%s n=%d %q subject %s", hs.label, n, sp.label, subject)

		rq := RangeQuery{Values: q, Eps: eps, Transform: sp.op.T, BothSides: sp.both, Delta: sp.delta, Prep: prep}
		// Only series inside the moment bounds may answer a range read.
		inBounds := ranked
		if sp.moments {
			// Bounds around the subject's own moments, wide enough to keep
			// some neighbours and narrow enough to drop others.
			m, s := series.Mean(hs.live[subject]), series.Std(hs.live[subject])
			rq.Moments = feature.MomentBounds{MeanLo: m - 15, MeanHi: m + 15, StdLo: s / 2, StdHi: s * 2}
			inBounds = slices.DeleteFunc(slices.Clone(ranked), func(h testkit.Hit) bool {
				xm, xs := series.Mean(values[h.I]), series.Std(values[h.I])
				return xm < m-15 || xm > m+15 || xs < s/2 || xs > s*2
			})
		}
		nq := NNQuery{Values: q, K: k, Transform: sp.op.T, BothSides: sp.both, Delta: sp.delta, Prep: prep}

		// Brute force, whole engine.
		strategies := []plan.Strategy{plan.Index, plan.ScanFreq, plan.Auto}
		ranges := strategies
		if sp.moments {
			ranges = strategies[:1] // the scans ignore moment bounds by design
		}
		for _, want := range ranges {
			res, _, err := forcedRange(hs.eng, rq, want)
			if err != nil {
				t.Fatalf("%s range %s: %v", label, want, err)
			}
			if err := testkit.CheckRange(inBounds, hitsOf(res, pos), eps, sp.delta, headSlack); err != nil {
				t.Errorf("%s range %s: %v", label, want, err)
			}
		}
		for _, want := range strategies {
			res, _, err := forcedNN(hs.eng, nq, want)
			if err != nil {
				t.Fatalf("%s nn %s: %v", label, want, err)
			}
			if err := testkit.CheckApproxNN(ranked, hitsOf(res, pos), k, sp.delta, headSlack); err != nil {
				t.Errorf("%s nn %s: %v", label, want, err)
			}
		}

		// Reference walk, shard by shard: each shard on its own, where the
		// work counters are a function of the query alone.
		for si, db := range hs.dbs() {
			if len(db.ids) == 0 {
				continue
			}
			solo := soloStore(db)
			shLabel := fmt.Sprintf("%s shard %d", label, si)
			sq := rq
			sq.Prep = nil // a stored-record plan belongs to the store that built it
			// The reference walks index or scan; they have no auto.
			for _, want := range ranges[:min(2, len(ranges))] {
				scan, kind := want == plan.ScanFreq, "range "+want.String()
				got, gotSt, err := forcedRange(solo, sq, want)
				if err != nil {
					t.Fatalf("%s %s: %v", shLabel, kind, err)
				}
				want, wantSt := refRange(t, db, sq, scan)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s diverges from the page-only reference walk:\n got %v\nwant %v", shLabel, kind, got, want)
				}
				sameWork(t, shLabel+" "+kind, gotSt, wantSt)
				if halfLen(n) <= relation.HeadCoeffs && gotSt.HeadResolved != gotSt.Candidates {
					t.Errorf("%s %s: a %d-coefficient record lies inside the head, yet %d of %d candidates opened pages",
						shLabel, kind, halfLen(n), gotSt.Candidates-gotSt.HeadResolved, gotSt.Candidates)
				}
			}
			snq := nq
			snq.Prep = nil
			for _, want := range strategies[:2] {
				scan, kind := want == plan.ScanFreq, "nn "+want.String()
				got, gotSt, err := forcedNN(solo, snq, want)
				if err != nil {
					t.Fatalf("%s %s: %v", shLabel, kind, err)
				}
				want, wantSt := refNN(t, db, snq, scan)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s diverges from the page-only reference walk:\n got %v\nwant %v", shLabel, kind, got, want)
				}
				sameWork(t, shLabel+" "+kind, gotSt, wantSt)
			}
		}
	}
}

// checkJoins compares the self join (scan and index) and the two-sided
// join with an O(n^2) brute force, and on each shard with the page-only
// reference walk.
func (hs *headStore) checkJoins(t *testing.T, n int) {
	t.Helper()
	specs := headSpecs(n)
	mavg, revMavg := specs[1].op, specs[2].op
	names, values := hs.live.Sorted()
	label := fmt.Sprintf("%s n=%d", hs.label, n)

	// Self join under mavg: a threshold between the 8th and 9th closest
	// pair.
	all := testkit.SelfJoin(values, mavg)
	eps := (all[7].Dist + all[8].Dist) / 2
	pos := positions(names)
	for _, m := range []JoinMethod{JoinScanEarlyAbandon, JoinIndexTransform} {
		pairs, _, err := hs.eng.SelfJoin(eps, mavg.T, m)
		if err != nil {
			t.Fatalf("%s selfjoin %s: %v", label, m, err)
		}
		if err := testkit.CheckJoin(all, pairsOf(hs.eng, pairs, pos), eps, headSlack); err != nil {
			t.Errorf("%s selfjoin %s: %v", label, m, err)
		}
	}

	// Two-sided joins, the ordered pairs within a threshold between the 6th
	// and 7th closest. D(reverse|mavg x, mavg y) = ‖−Mx − My‖ is symmetric
	// in (x, y); D(mavg x, y) is not, so a pair reported the wrong way
	// round is caught.
	twoSided := []struct {
		label       string
		left, right testkit.Op
		eps         float64
	}{{label: "join2", left: revMavg, right: mavg}, {label: "join2 mavg|identity", left: mavg, right: specs[0].op}}
	for i, j := range twoSided {
		ordered := testkit.Join(values, j.left, j.right)
		twoSided[i].eps = (ordered[5].Dist + ordered[6].Dist) / 2
		pairs, _, err := forcedJoinTwoSided(hs.eng, twoSided[i].eps, j.left.T, j.right.T)
		if err != nil {
			t.Fatalf("%s %s: %v", label, j.label, err)
		}
		if err := testkit.CheckJoin(ordered, pairsOf(hs.eng, pairs, pos), twoSided[i].eps, headSlack); err != nil {
			t.Errorf("%s %s: %v", label, j.label, err)
		}
	}

	for si, db := range hs.dbs() {
		if len(db.ids) < 2 {
			continue
		}
		solo := soloStore(db)
		shLabel := fmt.Sprintf("%s shard %d", label, si)
		type joinCase struct {
			kind string
			jq   JoinQuery
			scan bool
			run  func() ([]JoinPair, ExecStats, error)
		}
		cases := []joinCase{
			{"selfjoin scan", selfJoinQuery(eps, mavg.T), true, func() ([]JoinPair, ExecStats, error) {
				return solo.SelfJoin(eps, mavg.T, JoinScanEarlyAbandon)
			}},
			{"selfjoin index", selfJoinQuery(eps, mavg.T), false, func() ([]JoinPair, ExecStats, error) {
				return solo.SelfJoin(eps, mavg.T, JoinIndexTransform)
			}},
		}
		for _, j := range twoSided {
			jq := JoinQuery{Eps: j.eps, Left: j.left.T, Right: j.right.T, TwoSided: true}
			for _, want := range []plan.Strategy{plan.Index, plan.ScanFreq} {
				cases = append(cases, joinCase{j.label + " " + want.String(), jq, want == plan.ScanFreq, func() ([]JoinPair, ExecStats, error) {
					pl, err := solo.PlanJoin(jq, want)
					if err != nil {
						return nil, ExecStats{}, err
					}
					return solo.ExecJoin(jq, pl)
				}})
			}
		}
		for _, c := range cases {
			got, gotSt, err := c.run()
			if err != nil {
				t.Fatalf("%s %s: %v", shLabel, c.kind, err)
			}
			want, wantSt := refJoin(t, db, c.jq, c.scan, false)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s diverges from the page-only reference walk:\n got %v\nwant %v", shLabel, c.kind, got, want)
			}
			sameWork(t, shLabel+" "+c.kind, gotSt, wantSt)
		}
	}
}

func (hs *headStore) check(t *testing.T, n int, rng *rand.Rand) {
	t.Helper()
	hs.checkHeads(t)
	hs.checkQueries(t, n, rng)
	if n >= 8 {
		hs.checkJoins(t, n)
	}
}

// ---- the stores and what happens to them ----

// headOptions sizes a store for the test: small pages so records span
// several, and — disk-backed — a pool of about a tenth of each relation's
// pages.
func headOptions(t *testing.T, disk bool, count, n int) Options {
	opts := Options{PageSize: 256}
	if disk {
		perRecord := (16*halfLen(n) + opts.PageSize - 1) / opts.PageSize
		opts.Backing = t.TempDir()
		opts.CachePages = max(2, count*perRecord/10)
	}
	return opts
}

func newHeadStore(t *testing.T, label string, shards int, opts Options, n int, data []dataset.Series) *headStore {
	t.Helper()
	hs := &headStore{label: label, eng: newTestEngine(t, n, shards, opts), live: testkit.Live{}}
	// Three quarters arrive as one bulk load, the rest one at a time.
	bulk := len(data) * 3 / 4
	names, values := make([]string, bulk), make([][]float64, bulk)
	for i, d := range data {
		hs.live[d.Name] = append([]float64(nil), d.Values...)
		if i < bulk {
			names[i], values[i] = d.Name, d.Values
		}
	}
	if err := hs.eng.InsertBulk(names, values); err != nil {
		t.Fatal(err)
	}
	for _, d := range data[bulk:] {
		if _, err := hs.eng.Insert(d.Name, d.Values); err != nil {
			t.Fatal(err)
		}
	}
	return hs
}

// reload writes the store's snapshot and loads it at the given shard count,
// with the same storage options.
func (hs *headStore) reload(t *testing.T, label string, shards int, opts Options) *headStore {
	t.Helper()
	var buf bytes.Buffer
	if _, err := hs.eng.WriteTo(&buf); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if opts.Backing != "" {
		opts.Backing = t.TempDir()
	}
	eng, err := ReadEngine(&buf, opts, shards)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	t.Cleanup(func() { eng.Close() })
	return &headStore{label: hs.label + " " + label, eng: eng, live: hs.live}
}

func TestHeadParity(t *testing.T) {
	seed := int64(20260926)
	t.Logf("seed %d", seed)
	const count = 72
	for _, n := range []int{64, 8, 4} {
		for _, shards := range []int{1, 4} {
			for _, disk := range []bool{false, true} {
				label := fmt.Sprintf("n=%d/shards=%d/disk=%t", n, shards, disk)
				t.Run(label, func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed + int64(n*100+shards*10)))
					// Families of near-duplicates, so small thresholds have
					// answers and the head has close calls to make.
					data := dataset.RandomWalks(count, n, seed+int64(n))
					for i := count / 2; i < count; i++ {
						src := data[i-count/2].Values
						for j := range data[i].Values {
							data[i].Values[j] = src[j] + rng.NormFloat64()*0.5
						}
					}
					opts := headOptions(t, disk, count, n)
					hs := newHeadStore(t, label, shards, opts, n, data)
					hs.check(t, n, rng)

					hs.churn(t, n, rng, 150)
					hs.label = label + " churned"
					hs.check(t, n, rng)

					if _, err := hs.eng.Compact(); err != nil {
						t.Fatal(err)
					}
					hs.label = label + " compacted"
					hs.check(t, n, rng)

					// More churn on the compacted generation, so the
					// snapshots below carry appended records.
					hs.churn(t, n, rng, 40)
					hs.label = label + " rechurned"
					hs.checkHeads(t)

					other := 5 - shards // 1 <-> 4
					for _, ld := range []*headStore{
						hs.reload(t, "tsq4 same shards", shards, opts),
						hs.reload(t, "tsq4 resharded", other, opts),
					} {
						ld.check(t, n, rng)
					}
				})
			}
		}
	}
}

// TestHeadSparesPages pins the point of the heads: on clustered walks
// (near-duplicate families of four, the benchmark's data shape) a
// disk-backed NN k = 10 hands the index's Lemma 1 candidates to
// verification by the hundreds, and all but a few are dismissed inside
// their resident heads — the query faults fewer pages than a fifth of its
// candidates, where before the heads it faulted one per candidate.
//
// The ratio was a tenth (668 pages for 14,886 candidates) until the index
// learned to count every indexed coefficient twice: the mirror-weighted
// bound keeps 5,095 of those candidates, and every one it drops is one the
// heads dismissed — the 668 records that need their page are the near ones,
// and no filter on the first K coefficients tells them apart. Same pages,
// a third of the denominator.
func TestHeadSparesPages(t *testing.T) {
	const (
		count  = 12000
		length = 256
	)
	rng := rand.New(rand.NewSource(20260926))
	names, values := make([]string, count), make([][]float64, count)
	for i := range values {
		names[i] = fmt.Sprintf("F%04d", i)
		if i%4 == 0 {
			values[i] = dataset.RandomWalk(rng, length)
			continue
		}
		values[i] = make([]float64, length)
		for j, v := range values[i-i%4] {
			values[i][j] = v + rng.NormFloat64()*0.5
		}
	}
	// One page per spectrum; a pool of a quarter of them.
	db := newTestEngine(t, length, 1, Options{Backing: t.TempDir(), CachePages: count / 4})
	if err := db.InsertBulk(names, values); err != nil {
		t.Fatal(err)
	}
	var candidates, resolved int
	var pages int64
	for _, subject := range []int{3, 4001, 8002, 11999} {
		_, st, err := forcedNN(db, NNQuery{Values: values[subject], K: 10, Transform: transform.Identity(length)}, plan.Index)
		if err != nil {
			t.Fatal(err)
		}
		// Every opened record is one page and none repeats within a query,
		// so each costs one physical read at most.
		if opened := int64(st.Candidates - st.HeadResolved); st.PageReads > opened {
			t.Fatalf("subject %d: %d page reads for %d opened records", subject, st.PageReads, opened)
		}
		candidates, resolved, pages = candidates+st.Candidates, resolved+st.HeadResolved, pages+st.PageReads
	}
	t.Logf("%d candidates, %d resolved in the head, %d pages faulted", candidates, resolved, pages)
	if candidates < 400 {
		t.Fatalf("only %d candidates: the fixture no longer exercises the filter", candidates)
	}
	if pages*5 >= int64(candidates) {
		t.Fatalf("faulted %d pages for %d candidates: not under a fifth", pages, candidates)
	}
	if candidates-resolved >= candidates/5 {
		t.Fatalf("opened %d of %d candidates' records: not under a fifth", candidates-resolved, candidates)
	}
}
