package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/plan"
	"repro/internal/transform"
)

// scanJoinRecord is one stored series as the test-local walk sees it: its
// whole stored half, decoded up front, the length of its resident head and
// the pages its record spans.
type scanJoinRecord struct {
	id    int64
	x     []complex128
	head  int
	pages int
}

// scanJoinRecords lists every stored series of the store in ascending ID
// order, the order the scan join visits them in.
func scanJoinRecords(t *testing.T, s *Store) []scanJoinRecord {
	t.Helper()
	var out []scanJoinRecord
	for _, sh := range s.shards {
		for _, id := range sh.ids {
			rv, err := sh.freqRel.View(id)
			if err != nil {
				t.Fatal(err)
			}
			pages, err := sh.freqRel.ViewPagesInto(rv, nil)
			if err != nil {
				t.Fatal(err)
			}
			sh.freqRel.ReleaseView(rv)
			out = append(out, scanJoinRecord{id: id, x: pageOnlySpectrum(t, sh, id), head: len(rv.Head), pages: len(pages)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// walkEveryPair is the scan join written out pair by pair: every outer row
// fetched once (its pages read if its record is longer than its head),
// every later row walked term by term through the outer row's kernels —
// reading every term for method a, abandoning past eps² for method b — and
// its pages read once per step if any walk of the step went past the head.
func walkEveryPair(recs []scanJoinRecord, jq JoinQuery, earlyAbandon bool) ([]JoinPair, ExecStats) {
	eps2, limit := jq.Eps*jq.Eps, math.Inf(1)
	if earlyAbandon {
		limit = eps2
	}
	var (
		st  ExecStats
		out []JoinPair
	)
	for i, o := range recs {
		if o.head < len(o.x) {
			st.PageReads += int64(o.pages)
		}
		ks := [][]twin{kernel(nil, jq.Left, jq.Left, o.x)}
		if jq.TwoSided {
			ks = [][]twin{kernel(nil, jq.Right, jq.Left, o.x), kernel(nil, jq.Left, jq.Right, o.x)}
		}
		for _, in := range recs[i+1:] {
			opened := false
			for c, k := range ks {
				var sum float64
				terms := len(k)
				for f := range k {
					sum += k[f].term(in.x[f])
					if sum > limit {
						terms = f + 1
						break
					}
				}
				st.DistanceTerms += int64(terms)
				opened = opened || terms > in.head
				if sum > eps2 {
					continue
				}
				switch d := math.Sqrt(sum); {
				case !jq.TwoSided:
					out = append(out, orderedPair(o.id, in.id, d))
				case c == 0:
					out = append(out, JoinPair{A: o.id, B: in.id, Dist: d})
				default:
					out = append(out, JoinPair{A: in.id, B: o.id, Dist: d})
				}
			}
			st.Candidates += len(ks)
			if opened {
				st.PageReads += int64(in.pages)
			} else {
				st.HeadResolved += len(ks)
			}
		}
	}
	sortPairs(out)
	return out, st
}

// TestScanJoinAccounting pins the nested scan join's accounting, which the
// page-only reference walk of TestHeadParity covers only in part (method b,
// one shard at a time, no page or head counts): methods a and b of the
// self join and of the two-sided join, at shards 1 and 4, each against
// walkEveryPair — Candidates, HeadResolved, DistanceTerms and PageReads,
// and every pair with its distance to the bit.
func TestScanJoinAccounting(t *testing.T) {
	const (
		count = 48
		n     = 64
		seed  = 20261016
	)
	rng := rand.New(rand.NewSource(seed))
	data := dataset.RandomWalks(count, n, seed)
	// Families of near-duplicates, so a small eps pairs some series and
	// some comparisons outlive the head.
	names, values := make([]string, count), make([][]float64, count)
	for i, d := range data {
		names[i], values[i] = d.Name, d.Values
		if i%3 != 0 {
			values[i] = make([]float64, n)
			for j, v := range data[i-i%3].Values {
				values[i][j] = v + rng.NormFloat64()*0.4
			}
		}
	}
	mavg := transform.MovingAverage(n, 5)
	revMavg, err := transform.Reverse(n).Compose(mavg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		// Pages of 256 bytes: a 33-coefficient record spans several, and
		// its 16-coefficient head is under half of it.
		eng := newTestEngine(t, n, shards, Options{PageSize: 256})
		if err := eng.InsertBulk(names, values); err != nil {
			t.Fatal(err)
		}
		recs := scanJoinRecords(t, storeOf(eng))
		// Thresholds between the 12th and 13th closest pair of each join.
		cut := func(jq JoinQuery) float64 {
			jq.Eps = math.Inf(1)
			all, _ := walkEveryPair(recs, jq, false)
			sort.Slice(all, func(i, j int) bool { return all[i].Dist < all[j].Dist })
			return (all[11].Dist + all[12].Dist) / 2
		}
		eps := cut(selfJoinQuery(0, mavg))
		self := selfJoinQuery(eps, mavg)
		two := JoinQuery{Left: revMavg, Right: mavg, TwoSided: true}
		two.Eps = cut(two)
		planned := func(jq JoinQuery, want plan.Strategy) func() ([]JoinPair, ExecStats, error) {
			return func() ([]JoinPair, ExecStats, error) {
				pl, err := eng.PlanJoin(jq, want)
				if err != nil {
					return nil, ExecStats{}, err
				}
				return eng.ExecJoin(jq, pl)
			}
		}
		for _, c := range []struct {
			name         string
			jq           JoinQuery
			earlyAbandon bool
			run          func() ([]JoinPair, ExecStats, error)
		}{
			{"selfjoin a", self, false, func() ([]JoinPair, ExecStats, error) { return eng.SelfJoin(eps, mavg, JoinScanNaive) }},
			{"selfjoin b", self, true, func() ([]JoinPair, ExecStats, error) { return eng.SelfJoin(eps, mavg, JoinScanEarlyAbandon) }},
			{"join a", two, false, planned(two, plan.ScanTime)},
			{"join b", two, true, planned(two, plan.ScanFreq)},
		} {
			label := fmt.Sprintf("shards=%d %s", shards, c.name)
			want, wantSt := walkEveryPair(recs, c.jq, c.earlyAbandon)
			got, st, err := c.run()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(want) == 0 {
				t.Fatalf("%s: no pair within eps %v: the fixture does not exercise the join", label, c.jq.Eps)
			}
			// Method a reads every term, so with records longer than their
			// heads it opens every one; method b must both dismiss some
			// comparisons in the head and carry some past it.
			if c.earlyAbandon && (wantSt.HeadResolved == 0 || wantSt.HeadResolved == wantSt.Candidates) {
				t.Fatalf("%s: %d of %d comparisons resolved in the head: the fixture does not exercise both sides of it", label, wantSt.HeadResolved, wantSt.Candidates)
			}
			if st.Candidates != wantSt.Candidates || st.HeadResolved != wantSt.HeadResolved ||
				st.DistanceTerms != wantSt.DistanceTerms || st.PageReads != wantSt.PageReads {
				t.Errorf("%s: candidates %d, head-resolved %d, terms %d, pages %d; walk of every pair %d, %d, %d, %d",
					label, st.Candidates, st.HeadResolved, st.DistanceTerms, st.PageReads,
					wantSt.Candidates, wantSt.HeadResolved, wantSt.DistanceTerms, wantSt.PageReads)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d pairs, walk of every pair %d", label, len(got), len(want))
			}
			for i, p := range got {
				w := want[i]
				if p.A != w.A || p.B != w.B || math.Float64bits(p.Dist) != math.Float64bits(w.Dist) {
					t.Errorf("%s: pair %d is (%d, %d) at %v, walk of every pair (%d, %d) at %v", label, i, p.A, p.B, p.Dist, w.A, w.B, w.Dist)
				}
			}
		}
	}
}
