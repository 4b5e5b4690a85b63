package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/rtree"
	"repro/internal/transform"
)

// appendWalks builds count walks of total length; the first windowLen
// values seed the stores, the rest arrive as appends.
func appendWalks(count, total int, seed int64) [][]float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([][]float64, count)
	for i := range out {
		out[i] = dataset.RandomWalk(r, total)
	}
	return out
}

// buildByAppends seeds eng with each walk's initial window and streams the
// remainder in uneven chunks.
func buildByAppends(t *testing.T, eng Engine, walks [][]float64, windowLen int) {
	t.Helper()
	for i, w := range walks {
		if _, err := eng.Insert(fmt.Sprintf("W%04d", i), w[:windowLen]); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range walks {
		rest := w[windowLen:]
		chunk := 1 + i%5
		for off := 0; off < len(rest); off += chunk {
			end := off + chunk
			if end > len(rest) {
				end = len(rest)
			}
			if _, err := eng.Append(fmt.Sprintf("W%04d", i), rest[off:end]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// buildWhole inserts each walk's final window directly, in the same name
// and ID order as buildByAppends.
func buildWhole(t *testing.T, eng Engine, walks [][]float64, windowLen int) {
	t.Helper()
	for i, w := range walks {
		if _, err := eng.Insert(fmt.Sprintf("W%04d", i), w[len(w)-windowLen:]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendParity is the core-level half of the acceptance criterion: a
// store built by appends answers range, NN, and subsequence queries
// byte-identically to a store holding the same final windows inserted
// whole, at shard counts 1 and 4.
func TestAppendParity(t *testing.T) {
	const (
		windowLen = 64
		total     = windowLen + 150 // several wrap-arounds of streamed points
		count     = 60
	)
	walks := appendWalks(count, total, 1997)

	build := func(mk func() Engine, streamed bool) Engine {
		eng := mk()
		if streamed {
			buildByAppends(t, eng, walks, windowLen)
		} else {
			buildWhole(t, eng, walks, windowLen)
		}
		return eng
	}
	mkDB := func() Engine {
		db, err := NewDB(windowLen, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	mkSharded := func() Engine {
		s, err := NewStore(windowLen, 4, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	for _, tc := range []struct {
		label string
		mk    func() Engine
	}{{"shards=1", mkDB}, {"shards=4", mkSharded}} {
		streamed := build(tc.mk, true)
		whole := build(tc.mk, false)

		// Stored values must be bitwise identical.
		for i := 0; i < count; i++ {
			id, ok := streamed.IDByName(fmt.Sprintf("W%04d", i))
			if !ok {
				t.Fatalf("%s: W%04d missing from streamed store", tc.label, i)
			}
			got, err := streamed.Series(id)
			if err != nil {
				t.Fatal(err)
			}
			want := walks[i][len(walks[i])-windowLen:]
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: W%04d stored window differs after appends", tc.label, i)
			}
		}

		q := walks[3][len(walks[3])-windowLen:]
		mavg := transform.MovingAverage(windowLen, 8)
		for _, query := range []struct {
			label string
			run   func(Engine) (any, error)
		}{
			{"range-identity", func(e Engine) (any, error) {
				r, _, err := forcedRange(e, RangeQuery{Values: q, Eps: 4, Transform: transform.Identity(windowLen)}, plan.Index)
				return r, err
			}},
			{"range-mavg-both", func(e Engine) (any, error) {
				r, _, err := forcedRange(e, RangeQuery{Values: q, Eps: 3, Transform: mavg, BothSides: true}, plan.Index)
				return r, err
			}},
			{"range-scan", func(e Engine) (any, error) {
				r, _, err := forcedRange(e, RangeQuery{Values: q, Eps: 4, Transform: transform.Identity(windowLen)}, plan.ScanFreq)
				return r, err
			}},
			{"nn", func(e Engine) (any, error) {
				r, _, err := forcedNN(e, NNQuery{Values: q, K: 7, Transform: transform.Identity(windowLen)}, plan.Index)
				return r, err
			}},
			{"nn-mavg", func(e Engine) (any, error) {
				r, _, err := forcedNN(e, NNQuery{Values: q, K: 5, Transform: mavg}, plan.Index)
				return r, err
			}},
			{"subseq", func(e Engine) (any, error) {
				r, _, err := e.SubsequenceScan(q[:16], 10)
				return r, err
			}},
		} {
			got, err := query.run(streamed)
			if err != nil {
				t.Fatalf("%s/%s: streamed: %v", tc.label, query.label, err)
			}
			want, err := query.run(whole)
			if err != nil {
				t.Fatalf("%s/%s: whole: %v", tc.label, query.label, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: streamed store diverges from whole-insert store:\n got %+v\nwant %+v", tc.label, query.label, got, want)
			}
		}
	}
}

// newEngine opens an empty store: a DB at shards 1, a Sharded otherwise.
func newEngine(t *testing.T, length, shards int) Engine {
	t.Helper()
	if shards == 1 {
		db, err := NewDB(length, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	s, err := NewStore(length, shards, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAppendParityJoins pins the join paths — including the sharded scan
// join, which reads spectra from worker goroutines — on stores whose
// spectrum records were rewritten by appends.
func TestAppendParityJoins(t *testing.T) {
	const windowLen = 32
	walks := appendWalks(24, windowLen+5, 17)
	tr := transform.MovingAverage(windowLen, 4)
	for _, shards := range []int{1, 4} {
		streamed, whole := newEngine(t, windowLen, shards), newEngine(t, windowLen, shards)
		buildByAppends(t, streamed, walks, windowLen)
		buildWhole(t, whole, walks, windowLen)
		for _, tc := range []struct {
			label string
			run   func(Engine) (any, error)
		}{
			{"scan-join", func(e Engine) (any, error) {
				p, _, err := e.SelfJoin(8, tr, JoinScanEarlyAbandon)
				return p, err
			}},
			{"index-join", func(e Engine) (any, error) {
				p, _, err := e.SelfJoin(8, tr, JoinIndexTransform)
				return p, err
			}},
			{"two-sided", func(e Engine) (any, error) {
				p, _, err := forcedJoinTwoSided(e, 8, transform.Reverse(windowLen), tr)
				return p, err
			}},
		} {
			got, err := tc.run(streamed)
			if err != nil {
				t.Fatalf("shards=%d %s: streamed: %v", shards, tc.label, err)
			}
			want, err := tc.run(whole)
			if err != nil {
				t.Fatalf("shards=%d %s: whole: %v", shards, tc.label, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d %s: streamed store diverges from whole-insert store:\n got %+v\nwant %+v", shards, tc.label, got, want)
			}
		}
	}
}

// TestAppendInPlaceShare checks that the in-place index path actually
// carries the bulk of streaming updates (single-point drifts rarely leave
// their leaf). The store does not report which path an index move took, so
// the test replays every committed point into a twin k-index — built by the
// same inserts, hence the same tree — and counts there.
func TestAppendInPlaceShare(t *testing.T) {
	const windowLen = 64
	walks := appendWalks(30, windowLen+100, 7)
	db, err := NewDB(windowLen, Options{})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := index.New(db.Schema(), rtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	at := make([]geom.Point, len(walks))
	for i, w := range walks {
		c, err := db.Insert(fmt.Sprintf("W%04d", i), w[:windowLen])
		if err != nil {
			t.Fatal(err)
		}
		if err := twin.Insert(c.ID, c.Point); err != nil {
			t.Fatal(err)
		}
		at[i] = c.Point
	}
	var inPlace, total int
	for i, w := range walks {
		for _, x := range w[windowLen:] {
			c, err := db.Append(fmt.Sprintf("W%04d", i), []float64{x})
			if err != nil {
				t.Fatal(err)
			}
			total++
			moved, found := twin.Update(c.ID, at[i], c.Point)
			if !found {
				t.Fatalf("twin index lost id %d", c.ID)
			}
			if moved {
				inPlace++
			}
			at[i] = c.Point
			if c.ID != int64(i) {
				t.Fatalf("append reassigned ID: got %d want %d", c.ID, i)
			}
		}
	}
	if inPlace*2 < total {
		t.Fatalf("in-place share too low: %d of %d", inPlace, total)
	}
	if err := db.only().idx.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendStorageStable: in-place rewrites must not grow the relations.
func TestAppendStorageStable(t *testing.T) {
	const windowLen = 64
	db, err := NewDB(windowLen, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := appendWalks(1, windowLen+500, 3)[0]
	if _, err := db.Insert("W", w[:windowLen]); err != nil {
		t.Fatal(err)
	}
	timePages, freqPages := db.only().timeRel.Pages(), db.only().freqRel.Pages()
	for _, x := range w[windowLen:] {
		if _, err := db.Append("W", []float64{x}); err != nil {
			t.Fatal(err)
		}
	}
	if db.only().timeRel.Pages() != timePages || db.only().freqRel.Pages() != freqPages {
		t.Fatalf("appends grew storage: time %d->%d, freq %d->%d pages",
			timePages, db.only().timeRel.Pages(), freqPages, db.only().freqRel.Pages())
	}
}

// complexBits lists the bits of a complex vector's (re, im) pairs, the
// order a record stores them in.
func complexBits(v []complex128) []uint64 {
	out := make([]uint64, 0, 2*len(v))
	for _, c := range v {
		out = append(out, math.Float64bits(real(c)), math.Float64bits(imag(c)))
	}
	return out
}

// TestUpdateInPlace: an update overwrites where the record lies. A thousand
// of them leave both relations of every shard at the page count they had
// and Compact with nothing to reclaim; a rejected one — wrong length, a
// non-finite value, an unknown name — leaves every stored bit of the record
// as it was.
func TestUpdateInPlace(t *testing.T) {
	const count, n = 40, 64
	for _, shards := range []int{1, 4} {
		for _, disk := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/disk=%t", shards, disk), func(t *testing.T) {
				rng := rand.New(rand.NewSource(20261004))
				opts := Options{PageSize: 256}
				if disk {
					opts.Backing, opts.CachePages = t.TempDir(), 16
				}
				eng := newTestEngine(t, n, shards, opts)
				names := make([]string, count)
				for i := range names {
					names[i] = fmt.Sprintf("S%03d", i)
					if _, err := eng.Insert(names[i], dataset.RandomWalk(rng, n)); err != nil {
						t.Fatal(err)
					}
				}
				pages := func() (out []int) {
					for _, sh := range shardsOf(eng) {
						out = append(out, sh.timeRel.Pages(), sh.freqRel.Pages())
					}
					return out
				}
				before := pages()
				for step := 0; step < 1000; step++ {
					i := rng.Intn(count)
					c, err := eng.Update(names[i], dataset.RandomWalk(rng, n))
					if err != nil {
						t.Fatal(err)
					}
					if p, _ := eng.FeaturePoint(c.ID); c.ID != int64(i) || c.Shard != eng.ShardOf(names[i]) || !reflect.DeepEqual(c.Point, p) {
						t.Fatalf("update of %s committed %+v; it is id %d in shard %d at %v", names[i], c, i, eng.ShardOf(names[i]), p)
					}
				}
				if after := pages(); !reflect.DeepEqual(after, before) {
					t.Fatalf("1000 updates moved the page counts from %v to %v", before, after)
				}

				// Everything stored about one record, as bits.
				stored := func(name string) []uint64 {
					id := mustID(t, eng, name)
					w, err := eng.Series(id)
					if err != nil {
						t.Fatal(err)
					}
					p, _ := eng.FeaturePoint(id)
					prep, _ := eng.QueryPrep(id)
					rv, err := shardsOf(eng)[eng.ShardOf(name)].freqRel.View(id)
					if err != nil {
						t.Fatal(err)
					}
					var out []uint64
					for _, v := range [][]float64{w, p} {
						for _, x := range v {
							out = append(out, math.Float64bits(x))
						}
					}
					out = append(append(out, complexBits(prep.Spectrum)...), complexBits(rv.Head)...)
					return append(out, uint64(id), uint64(rv.Slot))
				}
				was := stored(names[7])
				bad := dataset.RandomWalk(rng, n)
				for label, vals := range map[string][]float64{
					"short": bad[:n-1],
					"long":  append(append([]float64(nil), bad...), 1),
					"NaN":   append(append([]float64(nil), bad[:n-1]...), math.NaN()),
					"+Inf":  append([]float64{math.Inf(1)}, bad[1:]...),
				} {
					if _, err := eng.Update(names[7], vals); err == nil {
						t.Fatalf("%s update accepted", label)
					}
					if !reflect.DeepEqual(stored(names[7]), was) {
						t.Fatalf("rejected %s update changed the stored record", label)
					}
				}
				if _, err := eng.Update("nope", bad); err == nil {
					t.Fatal("update of an unknown name accepted")
				}
				// The check is derive's, so an insert is refused the same way.
				if _, err := eng.Insert("fresh", append([]float64{math.NaN()}, bad[1:]...)); err == nil || eng.Len() != count {
					t.Fatalf("NaN insert: err %v, %d series stored", err, eng.Len())
				}

				if reclaimed, err := eng.Compact(); err != nil || reclaimed != 0 {
					t.Fatalf("Compact after updates alone reclaimed %d pages (%v)", reclaimed, err)
				}
			})
		}
	}
}

func TestAppendValidation(t *testing.T) {
	db, err := NewDB(64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := appendWalks(1, 64, 5)[0]
	if _, err := db.Insert("W", w); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append("missing", []float64{1}); err == nil {
		t.Fatal("append to unknown series succeeded")
	}
	if _, err := db.Append("W", nil); err == nil {
		t.Fatal("empty append succeeded")
	}
	if _, err := db.Append("W", []float64{math.NaN()}); err == nil {
		t.Fatal("NaN append succeeded")
	}
	if _, err := db.Append("W", []float64{math.Inf(1)}); err == nil {
		t.Fatal("Inf append succeeded")
	}
	// A rejected append must leave the stored window untouched.
	got, err := db.Series(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, w) {
		t.Fatal("rejected append mutated the stored series")
	}
}

// TestAppendLongerThanWindow: streaming more points than the window holds
// keeps only the tail, exactly like inserting the tail whole.
func TestAppendLongerThanWindow(t *testing.T) {
	const windowLen = 32
	w := appendWalks(1, 3*windowLen, 9)[0]
	db, _ := NewDB(windowLen, Options{})
	if _, err := db.Insert("W", w[:windowLen]); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append("W", w[windowLen:]); err != nil {
		t.Fatal(err)
	}
	got, err := db.Series(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, w[len(w)-windowLen:]) {
		t.Fatal("oversized append did not keep the window tail")
	}
}

// TestCheckWithinMatchesRange: per-name verification must agree exactly
// with the indexed range answer, including after appends and for unknown
// names.
func TestCheckWithinMatchesRange(t *testing.T) {
	const windowLen = 64
	walks := appendWalks(40, windowLen+60, 13)
	for _, shards := range []int{1, 4} {
		var eng Engine
		if shards == 1 {
			db, _ := NewDB(windowLen, Options{})
			eng = db
		} else {
			s, _ := NewStore(windowLen, shards, Options{})
			eng = s
		}
		buildByAppends(t, eng, walks, windowLen)

		q := RangeQuery{
			Values:    walks[0][len(walks[0])-windowLen:],
			Eps:       5,
			Transform: transform.MovingAverage(windowLen, 8),
			BothSides: true,
		}
		res, _, err := forcedRange(eng, q, plan.Index)
		if err != nil {
			t.Fatal(err)
		}
		inAnswer := map[string]float64{}
		for _, r := range res {
			inAnswer[r.Name] = r.Dist
		}
		for i := range walks {
			name := fmt.Sprintf("W%04d", i)
			dist, within, err := eng.CheckWithin(name, q)
			if err != nil {
				t.Fatal(err)
			}
			wantDist, wantIn := inAnswer[name]
			if within != wantIn {
				t.Fatalf("shards=%d: CheckWithin(%s) = %v, range answer says %v", shards, name, within, wantIn)
			}
			if within && dist != wantDist {
				t.Fatalf("shards=%d: CheckWithin(%s) dist %g != range dist %g", shards, name, dist, wantDist)
			}
		}
		if _, within, err := eng.CheckWithin("missing", q); err != nil || within {
			t.Fatalf("shards=%d: CheckWithin of unknown name = (%v, %v)", shards, within, err)
		}
	}
}

// TestPrefilterSound: every range answer's feature point must hit the
// prefilter rectangle (Lemma 1 — a miss proves non-membership).
func TestPrefilterSound(t *testing.T) {
	const windowLen = 64
	walks := appendWalks(50, windowLen+40, 21)
	db, _ := NewDB(windowLen, Options{})
	buildByAppends(t, db, walks, windowLen)

	for _, tr := range []transform.T{
		transform.Identity(windowLen),
		transform.MovingAverage(windowLen, 8),
		transform.Reverse(windowLen),
	} {
		for _, eps := range []float64{0.5, 2, 6} {
			q := RangeQuery{Values: walks[1][len(walks[1])-windowLen:], Eps: eps, Transform: tr}
			pf, err := db.PlanPrefilter(q)
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := forcedRange(db, q, plan.Index)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res {
				p, ok := db.FeaturePoint(r.ID)
				if !ok {
					t.Fatalf("no feature point for %s", r.Name)
				}
				if !pf.Hit(p, eps) {
					t.Fatalf("transform %v eps %g: answer %s (dist %g) missed the prefilter", tr, eps, r.Name, r.Dist)
				}
			}
			// +Inf threshold admits everything.
			if !pf.Hit(db.only().rec(0).point, math.Inf(1)) {
				t.Fatal("prefilter rejected a point at eps=+Inf")
			}
		}
	}
}

// TestAppendBoundaryParity is TestMirrorBoundaryParity on a store whose
// every series reached its window through in-place overwrites, from a past
// it must not remember: each is inserted as 1e5*N(0,1) junk, takes 0, 64 or
// 186 more junk points one at a time, and then its 64 real values — one at
// a time, or (every fourth series) in one Update. A feature point carried
// forward across those writes — rather than derived from the window it
// describes — sits 1e-7 from the spectrum verification reads, and at eps on
// a twin's own distance the index then dismisses what the scan returns.
func TestAppendBoundaryParity(t *testing.T) {
	boundarySuite(t, func(t *testing.T, eng Engine, names []string, values [][]float64) {
		rng := rand.New(rand.NewSource(mirrorSeed + 1))
		junk := func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = 1e5 * rng.NormFloat64()
			}
			return out
		}
		for _, name := range names {
			if _, err := eng.Insert(name, junk(boundaryLen)); err != nil {
				t.Fatal(err)
			}
		}
		for i, name := range names {
			slide := junk([]int{0, 64, 186}[i%3])
			if i%4 != 3 {
				slide = append(slide, values[i]...)
			}
			for _, x := range slide {
				if _, err := eng.Append(name, []float64{x}); err != nil {
					t.Fatal(err)
				}
			}
			if i%4 == 3 {
				if _, err := eng.Update(name, values[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// TestAppendEqualsInsert: an append or an update is an insert of the new
// window, in place. After a random script of appends of 1..600 points and
// updates to fresh walks, everything the store holds about a series —
// window, feature point, spectrum, resident head — has the bits a fresh
// store given the final windows by Insert has, under the same id; the two
// snapshots agree byte for byte up to the packed trees (whose shape is the
// one thing that remembers the route); and neither relation has grown a
// page.
func TestAppendEqualsInsert(t *testing.T) {
	seed := int64(20261003)
	t.Logf("seed %d", seed)
	const count, n = 40, 64
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for _, shards := range []int{1, 4} {
		for _, disk := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/disk=%t", shards, disk), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed + int64(shards)))
				open := func() Engine {
					opts := Options{PageSize: 256}
					if disk {
						opts.Backing, opts.CachePages = t.TempDir(), 16
					}
					return newTestEngine(t, n, shards, opts)
				}
				appended, fresh := open(), open()
				names := make([]string, count)
				final := make(map[string][]float64, count)
				for i := range names {
					names[i] = fmt.Sprintf("S%03d", i)
					final[names[i]] = dataset.RandomWalk(rng, n)
					if _, err := appended.Insert(names[i], final[names[i]]); err != nil {
						t.Fatal(err)
					}
				}
				pages := func(e Engine) (n int) {
					for _, sh := range shardsOf(e) {
						n += sh.timeRel.Pages() + sh.freqRel.Pages()
					}
					return n
				}
				pages0 := pages(appended)
				for step := 0; step < 400; step++ {
					name := names[rng.Intn(count)]
					if rng.Intn(4) == 0 {
						final[name] = dataset.RandomWalk(rng, n)
						if _, err := appended.Update(name, final[name]); err != nil {
							t.Fatal(err)
						}
						continue
					}
					size := 1 + rng.Intn(8)
					if rng.Intn(10) == 0 {
						size = 1 + rng.Intn(600)
					}
					pts, last := make([]float64, size), final[name][n-1]
					for i := range pts {
						last += rng.NormFloat64()
						pts[i] = last
					}
					if _, err := appended.Append(name, pts); err != nil {
						t.Fatal(err)
					}
					w := append(final[name], pts...)
					final[name] = w[len(w)-n:]
				}
				for _, name := range names {
					if _, err := fresh.Insert(name, final[name]); err != nil {
						t.Fatal(err)
					}
				}
				if got := pages(appended); got != pages0 || got != pages(fresh) {
					t.Fatalf("%d pages after the script, %d before it, %d in the fresh store", got, pages0, pages(fresh))
				}

				head := func(e Engine, name string, id int64) []complex128 {
					rv, err := shardsOf(e)[e.ShardOf(name)].freqRel.View(id)
					if err != nil {
						t.Fatal(err)
					}
					return rv.Head
				}
				for i, name := range names {
					id := mustID(t, appended, name)
					if fid := mustID(t, fresh, name); id != int64(i) || fid != id {
						t.Fatalf("%s has id %d after the script, %d inserted fresh", name, id, fid)
					}
					a, _ := appended.Series(id)
					f, _ := fresh.Series(id)
					if !reflect.DeepEqual(bits(a), bits(f)) || !reflect.DeepEqual(bits(a), bits(final[name])) {
						t.Fatalf("%s: window differs:\n appended %v\n fresh    %v", name, a, f)
					}
					ap, _ := appended.FeaturePoint(id)
					fp, _ := fresh.FeaturePoint(id)
					if !reflect.DeepEqual(bits(ap), bits(fp)) {
						t.Fatalf("%s: feature point differs:\n appended %v\n fresh    %v", name, ap, fp)
					}
					aq, _ := appended.QueryPrep(id)
					fq, _ := fresh.QueryPrep(id)
					if !reflect.DeepEqual(complexBits(aq.Spectrum), complexBits(fq.Spectrum)) {
						t.Fatalf("%s: stored spectrum differs", name)
					}
					ah, fh := head(appended, name, id), head(fresh, name, id)
					if len(ah) != relation.HeadCoeffs || !reflect.DeepEqual(complexBits(ah), complexBits(fh)) {
						t.Fatalf("%s: resident head differs:\n appended %v\n fresh    %v", name, ah, fh)
					}
				}

				// Header, series records and DERV (each with its checksum):
				// everything before SLAB.
				ab, fb := writeSnapshot(t, appended), writeSnapshot(t, fresh)
				secs := sectionsOf(t, ab)
				if secs[3].tag != "SLAB" {
					t.Fatalf("the snapshot's fourth section is %s, not SLAB", secs[3].tag)
				}
				if prefix := secs[3].at; !bytes.Equal(ab[:prefix], fb[:prefix]) {
					t.Fatal("snapshots differ in the header, series or DERV sections")
				}
			})
		}
	}
}
