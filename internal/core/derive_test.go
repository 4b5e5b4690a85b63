package core

// One derivation per series: every writer — Insert, InsertBulk, Update,
// Append — stores the feature point and the spectrum record that one
// real-input transform of the window gives, so a point's coefficient
// dimensions are its own stored record's X_1 … X_K, and a bulk load refuses
// what an insert refuses.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/series"
)

// checkPointsAreStoredHalves compares every live series' indexed point with
// Schema.Point of its stored record, read from the pages: the moment
// dimensions are the window's mean and std, the coefficient dimensions are
// laid out from the record's X_1 … X_K, bit for bit.
func (hs *headStore) checkPointsAreStoredHalves(t *testing.T, phase string) {
	t.Helper()
	schema := hs.eng.Schema()
	for name, window := range hs.live {
		id, ok := hs.eng.IDByName(name)
		if !ok {
			t.Fatalf("%s %s: %s not stored", hs.label, phase, name)
		}
		p, _ := hs.eng.FeaturePoint(id)
		spec := pageOnlySpectrum(t, shardsOf(hs.eng)[hs.eng.ShardOf(name)], id)
		want := schema.Point(series.Mean(window), series.Std(window), spec[1:schema.K+1])
		for d := range want {
			if math.Float64bits(p[d]) != math.Float64bits(want[d]) {
				t.Fatalf("%s %s: %s (id %d) is indexed at %v, its stored record lays out %v (dim %d)",
					hs.label, phase, name, id, p, want, d)
			}
		}
	}
}

func TestPointIsStoredHalf(t *testing.T) {
	seed := int64(20261015)
	t.Logf("seed %d", seed)
	const count = 40
	for _, n := range []int{64, 63} {
		for _, shards := range []int{1, 4} {
			for _, disk := range []bool{false, true} {
				label := fmt.Sprintf("n=%d/shards=%d/disk=%t", n, shards, disk)
				t.Run(label, func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed + int64(n+shards)))
					opts := headOptions(t, disk, count, n)
					// Three quarters bulk-loaded, the rest inserted one at a time.
					hs := newHeadStore(t, label, shards, opts, n, dataset.RandomWalks(count, n, seed))
					hs.checkPointsAreStoredHalves(t, "after load")
					names := hs.names()
					for i, name := range names[:8] {
						vals := dataset.RandomWalk(rng, n)
						if _, err := hs.eng.Update(name, vals); err != nil {
							t.Fatal(err)
						}
						hs.live[name] = vals
						pts := []float64{float64(i), -3.5, 1e3}
						if _, err := hs.eng.Append(names[len(names)-1-i], pts); err != nil {
							t.Fatal(err)
						}
						w := append(hs.live[names[len(names)-1-i]], pts...)
						hs.live[names[len(names)-1-i]] = w[len(w)-n:]
					}
					hs.checkPointsAreStoredHalves(t, "after updates and appends")
					hs.churn(t, n, rng, 60)
					hs.checkPointsAreStoredHalves(t, "after churn")
				})
			}
		}
	}
}

// TestInsertBulkRefusesNonFinite: a bulk load runs the derivation an insert
// runs, finiteness check included, over the whole batch before any shard
// loads — a NaN or an infinity anywhere refuses the batch by series and
// position, leaves every shard empty, and a valid batch loads after it.
func TestInsertBulkRefusesNonFinite(t *testing.T) {
	const n, count = 32, 12
	walks := dataset.RandomWalks(count, n, 5)
	for _, shards := range []int{1, 4} {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, pos := range []int{0, n / 2, n - 1} {
				label := fmt.Sprintf("shards=%d/%g@%d", shards, bad, pos)
				s, err := NewStore(n, shards, Options{})
				if err != nil {
					t.Fatal(err)
				}
				names := make([]string, count)
				values := make([][]float64, count)
				for i, w := range walks {
					names[i], values[i] = w.Name, w.Values
				}
				victim := count - 3
				poisoned := append([]float64(nil), values[victim]...)
				poisoned[pos] = bad
				values[victim] = poisoned
				err = s.InsertBulk(names, values)
				if err == nil {
					t.Fatalf("%s: batch with a non-finite value loaded", label)
				}
				if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("%q", names[victim])) || !strings.Contains(msg, fmt.Sprintf("position %d", pos)) {
					t.Fatalf("%s: error %q does not name series %s and position %d", label, msg, names[victim], pos)
				}
				if _, ierr := s.Insert(names[victim], poisoned); ierr == nil || ierr.Error() != err.Error() {
					t.Fatalf("%s: insert says %v, bulk load said %v", label, ierr, err)
				}
				if s.Len() != 0 {
					t.Fatalf("%s: refused batch left %d series", label, s.Len())
				}
				for si, sh := range s.shards {
					if len(sh.ids) != 0 || sh.idx.Len() != 0 || sh.timeRel.Len() != 0 || sh.freqRel.Len() != 0 {
						t.Fatalf("%s: shard %d populated by a refused batch", label, si)
					}
				}
				values[victim] = walks[victim].Values
				if err := s.InsertBulk(names, values); err != nil {
					t.Fatalf("%s: valid batch after the refusal: %v", label, err)
				}
				if s.Len() != count {
					t.Fatalf("%s: valid batch loaded %d of %d", label, s.Len(), count)
				}
				s.Close()
			}
		}
	}
}

// TestDeriveAllocs pins the derivation's allocations at n = 256, the length
// the benchmark serves: the feature point, and the record when the caller
// asks for memory of its own (a bulk load's records are carved from blocks
// instead). The normal form, the FFT and a single write's record live in
// the shard's scratch.
func TestDeriveAllocs(t *testing.T) {
	if testing.CoverMode() != "" || raceEnabled {
		t.Skip("instrumentation allocates")
	}
	const n = 256
	s, err := NewStore(n, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh := s.shards[0]
	w := dataset.RandomWalk(rand.New(rand.NewSource(3)), n)
	sh.derive("w", w, nil) // grow the scratch
	if a := testing.AllocsPerRun(100, func() { sh.derive("w", w, nil) }); a > 1 {
		t.Errorf("derive into scratch: %.1f allocs, want <= 1 (the point)", a)
	}
	if a := testing.AllocsPerRun(100, func() { sh.derive("w", w, make([]byte, 0, 16*halfLen(n))) }); a > 2 {
		t.Errorf("derive into fresh memory: %.1f allocs, want <= 2 (the point and the record)", a)
	}
}

func BenchmarkDerive(b *testing.B) {
	s, err := NewStore(256, 1, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	sh := s.shards[0]
	walks := dataset.RandomWalks(64, 256, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sh.derive("w", walks[i%len(walks)].Values, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertBulk is one Open + InsertBulk of 20,000 random walks of
// length 256 into one shard: the set-up the benchmark's CSV-loading
// workloads time.
func BenchmarkInsertBulk(b *testing.B) {
	walks := dataset.RandomWalks(20000, 256, 1)
	names := make([]string, len(walks))
	values := make([][]float64, len(walks))
	for i, w := range walks {
		names[i], values[i] = w.Name, w.Values
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewStore(256, 1, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.InsertBulk(names, values); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}
