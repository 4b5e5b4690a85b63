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
//   - every stored head equals the head of its record's pages, bit for bit;
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
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/feature"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/series"
	"repro/internal/transform"
)

// headSlack absorbs the float jitter between frequency-domain distances
// and the time-domain brute force.
const headSlack = 1e-6

// headSpec is one transformation under test: its spectral form for the
// engine and a pure time-domain implementation for the brute force.
type headSpec struct {
	label   string
	tr      transform.T
	time    func(nf []float64) []float64
	both    bool
	moments bool
	delta   float64
}

func headSpecs(t *testing.T, n int) []headSpec {
	t.Helper()
	w := 5
	if w > n/2 {
		w = n / 2
	}
	ident := func(x []float64) []float64 { return x }
	mavgT := func(x []float64) []float64 { return series.MovingAverageCircular(x, w) }
	revMavgT := func(x []float64) []float64 { return series.MovingAverageCircular(series.Negate(x), w) }
	mavg := transform.MovingAverage(n, w)
	revMavg, err := transform.Reverse(n).Compose(mavg)
	if err != nil {
		t.Fatal(err)
	}
	return []headSpec{
		{label: "identity", tr: transform.Identity(n), time: ident},
		{label: "mavg", tr: mavg, time: mavgT},
		{label: "reverse|mavg", tr: revMavg, time: revMavgT},
		{label: "mavg BOTH", tr: mavg, time: mavgT, both: true},
		{label: "identity moments", tr: transform.Identity(n), time: ident, moments: true},
		{label: "identity APPROX 0.1", tr: transform.Identity(n), time: ident, delta: 0.1},
		{label: "mavg BOTH APPROX 0.25", tr: mavg, time: mavgT, both: true, delta: 0.25},
	}
}

// headStore is one store under test and the test's own record of what it
// holds.
type headStore struct {
	label string
	eng   Engine
	live  map[string][]float64
	fresh int // names handed to churn's inserts
}

func (hs *headStore) dbs() []*shard { return shardsOf(hs.eng) }

// soloStore views one shard as a one-shard store of its own, with a cold
// planner: the reference walks compare shard by shard, where the work
// counters are a function of the query alone. Read-only.
func soloStore(sh *shard) *Store {
	s := &Store{
		length:  sh.length,
		shards:  []*shard{sh},
		tracker: plan.NewTracker(),
		history: plan.NewHistory(0),
		owner:   make(map[int64]int),
		idPos:   make(map[int64]int),
	}
	for _, id := range sh.ids {
		s.register(id, 0)
	}
	return s
}

func (hs *headStore) names() []string {
	out := make([]string, 0, len(hs.live))
	for name := range hs.live {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// bruteDist is D(T(nf(x)), nf(q)) — or D(T(nf(x)), T(nf(q))) two-sided —
// computed entirely in the time domain.
func bruteDist(sp headSpec, x, q []float64) float64 {
	qn := series.NormalForm(q)
	if sp.both {
		qn = sp.time(qn)
	}
	return series.EuclideanDistance(sp.time(series.NormalForm(x)), qn)
}

type bruteHit struct {
	name string
	dist float64
}

// bruteAll ranks every live series by its brute-force distance to q.
func (hs *headStore) bruteAll(sp headSpec, q []float64) []bruteHit {
	out := make([]bruteHit, 0, len(hs.live))
	for name, x := range hs.live {
		out = append(out, bruteHit{name, bruteDist(sp, x, q)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].dist != out[j].dist {
			return out[i].dist < out[j].dist
		}
		return out[i].name < out[j].name
	})
	return out
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

// refVerify is verifyFreq / verifyFreqApprox over a page-only view: the
// same kernel, so the same twin terms (a stored coefficient's and its
// mirror's) in the same order.
func refVerify(t *testing.T, db *shard, p *rangePlan, k []twin, id int64, eps float64, nnMode bool, st *ExecStats) (within bool, dist, bound float64) {
	t.Helper()
	if p != nil && p.approx() {
		within, dist, bound, err := db.ladderWalk(p, k, st, nil, nil, pageOnlyView(t, db, id), eps, nnMode)
		if err != nil {
			t.Fatal(err)
		}
		return within, dist, bound
	}
	x := pageOnlySpectrum(t, db, id)
	limit := eps * eps
	var sum float64
	for f := range k {
		sum += k[f].term(x[f])
		if sum > limit {
			st.DistanceTerms += int64(f + 1)
			return false, 0, 0
		}
	}
	st.DistanceTerms += int64(len(k))
	return true, math.Sqrt(sum), 0
}

func refResult(db *shard, p *rangePlan, id int64, dist, bound float64) Result {
	r := Result{ID: id, Name: db.name(id), Dist: dist}
	if p.approx() {
		r.Bound = bound
	}
	return r
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
		found, search := db.idx.RangeIDs(p.qp, p.mw.filterRadius(q.Eps), p.m, q.Moments, !db.opts.DisablePartialPrune, &sc, nil)
		ids, st.NodeAccesses = found, search.NodesVisited
	}
	var out []Result
	k := p.kernelInto(nil)
	for _, id := range ids {
		st.Candidates++
		if within, dist, bound := refVerify(t, db, p, k, id, q.Eps, false, &st); within {
			out = append(out, refResult(db, p, id, dist, bound))
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
}

// NearBound and VisitNear stop where nnVisit stops — same mirror weight,
// same push bound, an item past it not a candidate — so the reference walk
// visits the same nodes and verifies the same items.
func (v *refNNVisit) NearBound() float64 {
	return v.p.stopLine(v.best.threshold())
}

func (v *refNNVisit) VisitNear(id int64, partialDistSq float64) bool {
	eps := v.best.threshold()
	if partialDistSq > v.NearBound() {
		return true
	}
	v.st.Candidates++
	if within, dist, bound := refVerify(v.t, v.db, v.p, v.k, id, eps, true, v.st); within {
		v.best.offer(refResult(v.db, v.p, id, dist, bound))
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
			if within, dist, bound := refVerify(t, db, p, v.k, id, v.best.threshold(), true, &st); within {
				v.best.offer(refResult(db, p, id, dist, bound))
			}
		}
	} else {
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
		cands, search := db.idx.RangeIDs(tq, jp.radius, jp.lm, feature.MomentBounds{}, !db.opts.DisablePartialPrune, &sc, nil)
		st.NodeAccesses += search.NodesVisited
		for _, id := range cands {
			if id == qid || (selfOnce && id < qid) {
				continue
			}
			st.Candidates++
			if within, dist, _ := refVerify(t, db, nil, k, id, jq.Eps, false, &st); within {
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
		got.DistanceTerms != want.DistanceTerms || got.EarlyAccepts != want.EarlyAccepts {
		t.Errorf("%s: work differs from the page-only reference walk:\n got candidates %d nodes %d terms %d early accepts %d\nwant candidates %d nodes %d terms %d early accepts %d",
			label, got.Candidates, got.NodeAccesses, got.DistanceTerms, got.EarlyAccepts,
			want.Candidates, want.NodeAccesses, want.DistanceTerms, want.EarlyAccepts)
	}
	if got.HeadResolved < 0 || got.HeadResolved > got.Candidates {
		t.Errorf("%s: %d of %d candidates resolved in the head", label, got.HeadResolved, got.Candidates)
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
	}
}

// checkQueries runs every spec against the store: brute force on the whole
// engine, the reference walk on each shard's DB.
func (hs *headStore) checkQueries(t *testing.T, n int, rng *rand.Rand) {
	t.Helper()
	names := hs.names()
	const k = 5
	for _, sp := range headSpecs(t, n) {
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
		ranked := hs.bruteAll(sp, q)
		// A threshold between the 6th and 7th nearest, so no answer sits on
		// the boundary.
		cut := 6
		if cut >= len(ranked) {
			cut = len(ranked) - 1
		}
		eps := (ranked[cut-1].dist + ranked[cut].dist) / 2
		label := fmt.Sprintf("%s n=%d %q subject %s", hs.label, n, sp.label, subject)

		rq := RangeQuery{Values: q, Eps: eps, Transform: sp.tr, BothSides: sp.both, Delta: sp.delta, Prep: prep}
		var inBounds func(x []float64) bool
		if sp.moments {
			// Bounds around the subject's own moments, wide enough to keep
			// some neighbours and narrow enough to drop others.
			m, s := series.Mean(hs.live[subject]), series.Std(hs.live[subject])
			rq.Moments = feature.MomentBounds{MeanLo: m - 15, MeanHi: m + 15, StdLo: s / 2, StdHi: s * 2}
			inBounds = func(x []float64) bool {
				xm, xs := series.Mean(x), series.Std(x)
				return xm >= m-15 && xm <= m+15 && xs >= s/2 && xs <= s*2
			}
		}
		nq := NNQuery{Values: q, K: k, Transform: sp.tr, BothSides: sp.both, Delta: sp.delta, Prep: prep}

		// Brute force, whole engine.
		type rangeRun struct {
			name string
			run  func(RangeQuery) ([]Result, ExecStats, error)
		}
		runs := []rangeRun{{"range index", pinRange(hs.eng, plan.Index)}}
		if !sp.moments { // the scans ignore moment bounds by design
			runs = append(runs, rangeRun{"range scan", pinRange(hs.eng, plan.ScanFreq)},
				rangeRun{"range auto", func(q RangeQuery) ([]Result, ExecStats, error) {
					pl, err := hs.eng.PlanRange(q, plan.Auto)
					if err != nil {
						return nil, ExecStats{}, err
					}
					return hs.eng.ExecRangeInto(q, pl, nil)
				}})
		}
		for _, r := range runs {
			res, _, err := r.run(rq)
			if err != nil {
				t.Fatalf("%s %s: %v", label, r.name, err)
			}
			got := map[string]Result{}
			for _, m := range res {
				got[m.Name] = m
			}
			for _, h := range ranked {
				if inBounds != nil && !inBounds(hs.live[h.name]) {
					if _, ok := got[h.name]; ok {
						t.Errorf("%s %s: %s is outside the moment bounds", label, r.name, h.name)
					}
					continue
				}
				m, ok := got[h.name]
				switch {
				case h.dist <= eps && !ok:
					t.Errorf("%s %s: missed %s at brute-force distance %.9f <= eps %.9f", label, r.name, h.name, h.dist, eps)
				case h.dist > (1+sp.delta)*eps+headSlack && ok:
					t.Errorf("%s %s: returned %s at brute-force distance %.9f > (1+%g)*eps %.9f", label, r.name, h.name, h.dist, sp.delta, eps)
				case ok && sp.delta == 0 && math.Abs(m.Dist-h.dist) > headSlack:
					t.Errorf("%s %s: %s at distance %.9f, brute force %.9f", label, r.name, h.name, m.Dist, h.dist)
				case ok && sp.delta > 0 && (m.Dist > h.dist+headSlack || m.Bound < h.dist-headSlack):
					t.Errorf("%s %s: %s bounds [%.9f, %.9f] miss brute force %.9f", label, r.name, h.name, m.Dist, m.Bound, h.dist)
				}
			}
		}
		for _, r := range []struct {
			name string
			run  func(NNQuery) ([]Result, ExecStats, error)
		}{
			{"nn index", pinNN(hs.eng, plan.Index)},
			{"nn scan", pinNN(hs.eng, plan.ScanFreq)},
			{"nn auto", func(q NNQuery) ([]Result, ExecStats, error) {
				pl, err := hs.eng.PlanNN(q, plan.Auto)
				if err != nil {
					return nil, ExecStats{}, err
				}
				return hs.eng.ExecNNInto(q, pl, nil)
			}},
		} {
			res, _, err := r.run(nq)
			if err != nil {
				t.Fatalf("%s %s: %v", label, r.name, err)
			}
			if want := min(k, len(ranked)); len(res) != want {
				t.Fatalf("%s %s: %d neighbours, want %d", label, r.name, len(res), want)
			}
			for i, m := range res {
				exact := ranked[i].dist
				if sp.delta == 0 && (m.Name != ranked[i].name || math.Abs(m.Dist-exact) > headSlack) {
					t.Errorf("%s %s: rank %d is %s at %.9f, brute force %s at %.9f", label, r.name, i, m.Name, m.Dist, ranked[i].name, exact)
				}
				if m.Dist > (1+sp.delta)*exact+headSlack {
					t.Errorf("%s %s: rank %d reported %.9f > (1+%g) * %.9f", label, r.name, i, m.Dist, sp.delta, exact)
				}
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
			for _, scan := range []bool{false, true} {
				if scan && sp.moments {
					continue
				}
				run, kind := pinRange(solo, plan.Index), "range index"
				if scan {
					run, kind = pinRange(solo, plan.ScanFreq), "range scan"
				}
				got, gotSt, err := run(sq)
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
			for _, scan := range []bool{false, true} {
				run, kind := pinNN(solo, plan.Index), "nn index"
				if scan {
					run, kind = pinNN(solo, plan.ScanFreq), "nn scan"
				}
				got, gotSt, err := run(snq)
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
	specs := headSpecs(t, n)
	mavg, revMavg := specs[1], specs[2]
	names := hs.names()
	label := fmt.Sprintf("%s n=%d", hs.label, n)

	// Self join under mavg: a threshold between the 8th and 9th closest
	// pair.
	type pair struct {
		a, b string
		d    float64
	}
	var all []pair
	for i, a := range names {
		ta := mavg.time(series.NormalForm(hs.live[a]))
		for _, b := range names[i+1:] {
			all = append(all, pair{a, b, series.EuclideanDistance(ta, mavg.time(series.NormalForm(hs.live[b])))})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
	eps := (all[7].d + all[8].d) / 2
	want := map[[2]string]float64{}
	for _, p := range all[:8] {
		want[[2]string{p.a, p.b}] = p.d
	}
	for _, m := range []JoinMethod{JoinScanEarlyAbandon, JoinIndexTransform} {
		pairs, _, err := hs.eng.SelfJoin(eps, mavg.tr, m)
		if err != nil {
			t.Fatalf("%s selfjoin %s: %v", label, m, err)
		}
		got := map[[2]string]float64{}
		for _, p := range pairs {
			a, b := hs.eng.Name(p.A), hs.eng.Name(p.B)
			if a > b {
				a, b = b, a
			}
			got[[2]string{a, b}] = p.Dist
		}
		if len(got) != len(want) {
			t.Errorf("%s selfjoin %s: %d distinct pairs, brute force %d", label, m, len(got), len(want))
		}
		for key, d := range want {
			if g, ok := got[key]; !ok || math.Abs(g-d) > headSlack {
				t.Errorf("%s selfjoin %s: pair %v at %.9f, brute force %.9f (found %t)", label, m, key, g, d, ok)
			}
		}
	}

	// Two-sided join D(reverse|mavg x, mavg y): the ordered pairs within a
	// threshold between the 6th and 7th closest.
	var ordered []pair
	for _, a := range names {
		ta := revMavg.time(series.NormalForm(hs.live[a]))
		for _, b := range names {
			if a != b {
				ordered = append(ordered, pair{a, b, series.EuclideanDistance(ta, mavg.time(series.NormalForm(hs.live[b])))})
			}
		}
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].d < ordered[j].d })
	eps2 := (ordered[5].d + ordered[6].d) / 2
	pairs, _, err := forcedJoinTwoSided(hs.eng, eps2, revMavg.tr, mavg.tr)
	if err != nil {
		t.Fatalf("%s join2: %v", label, err)
	}
	if len(pairs) != 6 {
		t.Errorf("%s join2: %d pairs, brute force 6", label, len(pairs))
	}
	for _, w := range ordered[:6] {
		found := false
		for _, p := range pairs {
			if hs.eng.Name(p.A) == w.a && hs.eng.Name(p.B) == w.b && math.Abs(p.Dist-w.d) <= headSlack {
				found = true
			}
		}
		if !found {
			t.Errorf("%s join2: missing (%s, %s) at %.9f", label, w.a, w.b, w.d)
		}
	}

	for si, db := range hs.dbs() {
		if len(db.ids) < 2 {
			continue
		}
		solo := soloStore(db)
		shLabel := fmt.Sprintf("%s shard %d", label, si)
		for _, c := range []struct {
			kind string
			jq   JoinQuery
			scan bool
			run  func() ([]JoinPair, ExecStats, error)
		}{
			{"selfjoin scan", selfJoinQuery(eps, mavg.tr), true, func() ([]JoinPair, ExecStats, error) {
				return solo.SelfJoin(eps, mavg.tr, JoinScanEarlyAbandon)
			}},
			{"selfjoin index", selfJoinQuery(eps, mavg.tr), false, func() ([]JoinPair, ExecStats, error) {
				return solo.SelfJoin(eps, mavg.tr, JoinIndexTransform)
			}},
			{"join2 index", JoinQuery{Eps: eps2, Left: revMavg.tr, Right: mavg.tr, TwoSided: true}, false, func() ([]JoinPair, ExecStats, error) {
				return forcedJoinTwoSided(solo, eps2, revMavg.tr, mavg.tr)
			}},
			{"join2 scan", JoinQuery{Eps: eps2, Left: revMavg.tr, Right: mavg.tr, TwoSided: true}, true, func() ([]JoinPair, ExecStats, error) {
				jq := JoinQuery{Eps: eps2, Left: revMavg.tr, Right: mavg.tr, TwoSided: true}
				pl, err := solo.PlanJoin(jq, plan.ScanFreq)
				if err != nil {
					return nil, ExecStats{}, err
				}
				return solo.ExecJoin(jq, pl)
			}},
		} {
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
	hs := &headStore{label: label, eng: newTestEngine(t, n, shards, opts), live: map[string][]float64{}}
	// Three quarters arrive as one bulk load, the rest one at a time.
	bulk := len(data) * 3 / 4
	names, values := make([]string, bulk), make([][]float64, bulk)
	for i, d := range data[:bulk] {
		names[i], values[i] = d.Name, d.Values
	}
	if err := hs.eng.InsertBulk(names, values); err != nil {
		t.Fatal(err)
	}
	for _, d := range data[bulk:] {
		if _, err := hs.eng.Insert(d.Name, d.Values); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range data {
		hs.live[d.Name] = append([]float64(nil), d.Values...)
	}
	return hs
}

// churn applies a random interleaving of appends, deletes, updates and
// inserts, keeping the mirror in step.
func (hs *headStore) churn(t *testing.T, n int, rng *rand.Rand, steps int) {
	t.Helper()
	for step := 0; step < steps; step++ {
		names := hs.names()
		name := names[rng.Intn(len(names))]
		switch op := rng.Intn(10); {
		case op < 6: // append 1..5 points
			pts := make([]float64, 1+rng.Intn(5))
			last := hs.live[name][n-1]
			for i := range pts {
				last += rng.Float64()*8 - 4
				pts[i] = last
			}
			if _, err := hs.eng.Append(name, pts); err != nil {
				t.Fatal(err)
			}
			w := append(hs.live[name], pts...)
			hs.live[name] = append([]float64(nil), w[len(w)-n:]...)
		case op < 7 && len(names) > 24:
			if !hs.eng.Delete(name) {
				t.Fatalf("delete %s: not stored", name)
			}
			delete(hs.live, name)
		case op < 9:
			vals := dataset.RandomWalk(rng, n)
			if _, err := hs.eng.Update(name, vals); err != nil {
				t.Fatal(err)
			}
			hs.live[name] = vals
		default:
			hs.fresh++
			nn := fmt.Sprintf("N%d-%04d", n, hs.fresh)
			vals := dataset.RandomWalk(rng, n)
			if _, err := hs.eng.Insert(nn, vals); err != nil {
				t.Fatal(err)
			}
			hs.live[nn] = vals
		}
	}
}

// reload writes the store with the given writer and loads the bytes at the
// given shard count, with the same storage options.
func (hs *headStore) reload(t *testing.T, label string, write func(io.Writer) (int64, error), shards int, opts Options) *headStore {
	t.Helper()
	var buf bytes.Buffer
	if _, err := write(&buf); err != nil {
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
						hs.reload(t, "tsq4 same shards", hs.eng.WriteTo, shards, opts),
						hs.reload(t, "tsq4 resharded", hs.eng.WriteTo, other, opts),
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
