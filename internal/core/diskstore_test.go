package core

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/plan"
	"repro/internal/transform"
)

// newTestEngine builds a store of the requested width with the given
// options, registering Close on test cleanup.
func newTestEngine(t *testing.T, length, shards int, opts Options) Engine {
	t.Helper()
	s, err := NewStore(length, shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s.Engine()
}

// compareEngines asserts two engines answer a query identically.
func compareEngines[T any](t *testing.T, label string, want, got Engine, run func(Engine) (T, error)) {
	t.Helper()
	w, err := run(want)
	if err != nil {
		t.Fatalf("%s: resident: %v", label, err)
	}
	g, err := run(got)
	if err != nil {
		t.Fatalf("%s: disk: %v", label, err)
	}
	if !reflect.DeepEqual(g, w) {
		t.Errorf("%s: disk store diverges from resident:\n got %+v\nwant %+v", label, g, w)
	}
}

// allKindsParity runs one query of every kind — range (all three
// strategies), NN (both), self join, two-sided join, subsequence scan —
// against both engines and requires identical answers.
func allKindsParity(t *testing.T, resident, disk Engine, length int) {
	t.Helper()
	mavg := transform.MovingAverage(length, 5)
	revMavg, err := transform.Reverse(length).Compose(mavg)
	if err != nil {
		t.Fatal(err)
	}
	q := queryValues(length, 7)

	rq := RangeQuery{Values: q, Eps: 6, Transform: mavg}
	compareEngines(t, "range/indexed", resident, disk, func(e Engine) ([]Result, error) {
		r, _, err := forcedRange(e, rq, plan.Index)
		return r, err
	})
	compareEngines(t, "range/scanfreq", resident, disk, func(e Engine) ([]Result, error) {
		r, _, err := forcedRange(e, rq, plan.ScanFreq)
		return r, err
	})
	compareEngines(t, "range/scantime", resident, disk, func(e Engine) ([]Result, error) {
		r, _, err := forcedRange(e, rq, plan.ScanTime)
		return r, err
	})

	nq := NNQuery{Values: q, K: 7, Transform: mavg}
	compareEngines(t, "nn/indexed", resident, disk, func(e Engine) ([]Result, error) {
		r, _, err := forcedNN(e, nq, plan.Index)
		return r, err
	})
	compareEngines(t, "nn/scan", resident, disk, func(e Engine) ([]Result, error) {
		r, _, err := forcedNN(e, nq, plan.ScanFreq)
		return r, err
	})

	for _, m := range []JoinMethod{JoinScanEarlyAbandon, JoinIndexTransform} {
		m := m
		compareEngines(t, fmt.Sprintf("selfjoin/%s", m), resident, disk, func(e Engine) ([]JoinPair, error) {
			p, _, err := e.SelfJoin(3.5, mavg, m)
			return p, err
		})
	}
	compareEngines(t, "join-two-sided", resident, disk, func(e Engine) ([]JoinPair, error) {
		p, _, err := forcedJoinTwoSided(e, 3.0, revMavg, mavg)
		return p, err
	})

	sub := queryValues(length/2, 9)
	compareEngines(t, "subsequence", resident, disk, func(e Engine) ([]SubseqResult, error) {
		r, _, err := e.SubsequenceScan(sub, 40)
		return r, err
	})
}

// TestDiskBackedLowCacheParity is the larger-than-RAM acceptance check: a
// disk-backed store whose buffer pool holds ~10% of its pages answers
// every query kind exactly like a fully resident store, through churn
// (deletes, updates) and a compaction into a fresh file generation.
func TestDiskBackedLowCacheParity(t *testing.T) {
	const (
		count  = 200
		length = 64
	)
	data := dataset.RandomWalks(count, length, 11)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			resident := newTestEngine(t, length, shards, Options{})
			// Each record occupies one page per relation at the default page
			// size, so count/shards pages per shard; a tenth of that is the
			// pool.
			cache := count / shards / 10
			dir := t.TempDir()
			disk := newTestEngine(t, length, shards, Options{Backing: dir, CachePages: cache})

			for _, d := range data {
				if _, err := resident.Insert(d.Name, d.Values); err != nil {
					t.Fatal(err)
				}
				if _, err := disk.Insert(d.Name, d.Values); err != nil {
					t.Fatal(err)
				}
			}
			ps := disk.PoolStats()
			if !ps.DiskBacked {
				t.Fatal("store with Backing set reports DiskBacked=false")
			}
			if got, want := ps.Capacity, 2*shards*cache; got != want {
				t.Fatalf("pool capacity %d, want %d (2 relations x %d shards x %d pages)", got, want, shards, cache)
			}

			allKindsParity(t, resident, disk, length)

			ps = disk.PoolStats()
			if ps.Misses == 0 || ps.Evictions == 0 {
				t.Errorf("a 10%% cache should fault and evict; stats %+v", ps)
			}
			if ps.Resident > ps.Capacity {
				t.Errorf("resident %d exceeds capacity %d", ps.Resident, ps.Capacity)
			}
			if ps.Pinned != 0 {
				t.Errorf("%d frames still pinned after queries returned", ps.Pinned)
			}

			// Churn: in-place updates exercise the pool's write-through, and
			// deletes leave dead pages for Compact.
			for i := 0; i < count; i += 7 {
				name := fmt.Sprintf("W%04d", i)
				if !resident.Delete(name) || !disk.Delete(name) {
					t.Fatalf("delete %s missing", name)
				}
			}
			for i := 1; i < count; i += 11 {
				if i%7 == 0 {
					continue
				}
				name := fmt.Sprintf("W%04d", i)
				vals := queryValues(length, int64(i))
				if _, err := resident.Update(name, vals); err != nil {
					t.Fatal(err)
				}
				if _, err := disk.Update(name, vals); err != nil {
					t.Fatal(err)
				}
			}
			allKindsParity(t, resident, disk, length)

			// Compact rewrites the page files into a fresh generation and
			// removes the old one; answers must not change.
			reclaimed, err := disk.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if reclaimed <= 0 {
				t.Errorf("compaction after deletes reclaimed %d pages", reclaimed)
			}
			if _, err := resident.Compact(); err != nil {
				t.Fatal(err)
			}
			allKindsParity(t, resident, disk, length)
			var files []string
			err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
				if err == nil && !d.IsDir() {
					files = append(files, filepath.Base(path))
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(files), 2*shards; got != want {
				t.Errorf("backing dir holds %d page files after compaction, want %d (old generations removed): %v", got, want, files)
			}
			for _, f := range files {
				if f == "time-g000.pages" || f == "freq-g000.pages" {
					t.Errorf("generation-0 file %s survived compaction", f)
				}
			}
		})
	}
}

// TestSnapshotCompatVersions is the snapshot load-path gate: a TSQ3
// snapshot written at shard count 1 or 4 must load at shard counts 1 and 4
// — adopting its packed trees where the counts match, re-sharding from DERV
// where they do not — and so must one cut short before its derived
// sections, which rebuilds everything; each answers queries identically to
// the store that wrote the snapshot.
func TestSnapshotCompatVersions(t *testing.T) {
	const (
		count  = 150
		length = 64
	)
	data := dataset.RandomWalks(count, length, 23)
	names := make([]string, len(data))
	values := make([][]float64, len(data))
	for i, d := range data {
		names[i] = d.Name
		values[i] = d.Values
	}
	build := func(t *testing.T, shards int) Engine {
		e := newTestEngine(t, length, shards, Options{})
		if err := e.InsertBulk(names, values); err != nil {
			t.Fatal(err)
		}
		return e
	}
	srcDB := build(t, 1)
	// bare keeps the header and the series records only: what a writer
	// without the derived sections (or a truncated stream) leaves.
	bare := func(w io.Writer) (int64, error) {
		var buf bytes.Buffer
		if _, err := srcDB.WriteTo(&buf); err != nil {
			return 0, err
		}
		end := 18 // magic, space, k, moments, length, shards, count
		for _, name := range names {
			end += 2 + len(name) + 8*length
		}
		if !bytes.HasPrefix(buf.Bytes()[end:], derivedMagic[:]) {
			return 0, fmt.Errorf("series records do not end at byte %d", end)
		}
		n, err := w.Write(buf.Bytes()[:end])
		return int64(n), err
	}

	fixtures := []struct {
		label string
		write func(io.Writer) (int64, error)
	}{
		{"tsq3-shards1", srcDB.WriteTo},
		{"tsq3-shards4", build(t, 4).WriteTo},
		{"tsq3-bare", bare},
	}
	for _, fx := range fixtures {
		var buf bytes.Buffer
		if _, err := fx.write(&buf); err != nil {
			t.Fatalf("%s: %v", fx.label, err)
		}
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/load-shards=%d", fx.label, shards), func(t *testing.T) {
				got, err := ReadEngine(bytes.NewReader(buf.Bytes()), Options{}, shards)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { got.Close() })
				if got.Len() != count {
					t.Fatalf("loaded %d series, want %d", got.Len(), count)
				}
				if got.Shards() != shards {
					t.Fatalf("loaded %d shards, want %d", got.Shards(), shards)
				}
				allKindsParity(t, srcDB, got, length)
			})
		}
	}
}

// TestSnapshotAdoptsTree pins the adopt half of the adopt-versus-rebuild
// dispatch: loading a TSQ3 snapshot at its recorded shard count must
// reproduce the writer's index byte-for-byte (the serialized form of the
// adopted tree equals the slab that was written).
func TestSnapshotAdoptsTree(t *testing.T) {
	const (
		count  = 80
		length = 32
	)
	data := dataset.RandomWalks(count, length, 31)
	src := newTestEngine(t, length, 1, Options{}).(*DB)
	for _, d := range data {
		if _, err := src.Insert(d.Name, d.Values); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a few so live IDs are gappy: the writer's dense remap and the
	// loader's 0..n-1 assignment must still line up.
	for _, name := range []string{"W0003", "W0040", "W0079"} {
		if !src.Delete(name) {
			t.Fatalf("delete %s missing", name)
		}
	}
	var snap bytes.Buffer
	if _, err := src.WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEngine(bytes.NewReader(snap.Bytes()), Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { got.Close() })
	db := got.(*DB)

	var wantTree, gotTree bytes.Buffer
	identity := func(id int64) (int64, bool) { return id, true }
	if err := db.Index().EncodeTree(&gotTree, identity); err != nil {
		t.Fatal(err)
	}
	if err := src.Index().EncodeTree(&wantTree, densePositions(src.IDs())); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotTree.Bytes(), wantTree.Bytes()) {
		t.Error("adopted tree differs from the serialized slab")
	}
	// IDs re-densify on load (the writer's remap), so compare answers by
	// name and distance rather than full Result structs.
	rq := RangeQuery{Values: queryValues(length, 7), Eps: 6, Transform: transform.MovingAverage(length, 5)}
	want, _, err := forcedRange(src, rq, plan.Index)
	if err != nil {
		t.Fatal(err)
	}
	have, _, err := forcedRange(db, rq, plan.Index)
	if err != nil {
		t.Fatal(err)
	}
	if len(have) != len(want) {
		t.Fatalf("loaded store answers %d results, writer %d", len(have), len(want))
	}
	for i := range want {
		if have[i].Name != want[i].Name || have[i].Dist != want[i].Dist {
			t.Fatalf("result %d: got %s@%g, want %s@%g", i, have[i].Name, have[i].Dist, want[i].Name, want[i].Dist)
		}
	}
}

// TestRetiredSnapshotVersions: the series-only TSQ1 and TSQ2 formats are
// refused at the header, by name, at every requested shard count — no
// panic and no partial store.
func TestRetiredSnapshotVersions(t *testing.T) {
	src := newTestEngine(t, 32, 1, Options{})
	for _, d := range dataset.RandomWalks(8, 32, 5) {
		if _, err := src.Insert(d.Name, d.Values); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if _, err := src.WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	for _, magic := range []string{"TSQ1", "TSQ2"} {
		for _, c := range []struct {
			label string
			raw   []byte
		}{
			{"full stream", append([]byte(magic), snap.Bytes()[4:]...)},
			{"magic only", []byte(magic)},
		} {
			for _, shards := range []int{0, 1, 4} {
				eng, err := ReadEngine(bytes.NewReader(c.raw), Options{}, shards)
				if err == nil || eng != nil {
					t.Fatalf("%s %s at shards=%d: loaded (engine %v, err %v)", magic, c.label, shards, eng, err)
				}
				if !strings.Contains(err.Error(), magic) {
					t.Errorf("%s %s at shards=%d: error does not name the version: %v", magic, c.label, shards, err)
				}
			}
		}
		if db, err := ReadFrom(bytes.NewReader([]byte(magic)), Options{}); err == nil || db != nil {
			t.Errorf("%s: ReadFrom loaded (%v, %v)", magic, db, err)
		}
	}
}

// TestJoinPrefilterRetag is the regression test for unbounded absorb
// growth: repeated misses dilate the prefilter's extent monotonically,
// and Retag must shed that growth by re-anchoring to the store's live
// feature bounds.
func TestJoinPrefilterRetag(t *testing.T) {
	const length = 32
	db := newTestEngine(t, length, 1, Options{}).(*DB)
	for _, d := range dataset.RandomWalks(60, length, 41) {
		if _, err := db.Insert(d.Name, d.Values); err != nil {
			t.Fatal(err)
		}
	}
	id := transform.Identity(length)
	jp, err := db.JoinPrefilter(JoinQuery{Eps: 1.0, Left: id, Right: id})
	if err != nil {
		t.Fatal(err)
	}
	if jp.Absorbed() != 0 {
		t.Fatalf("fresh prefilter reports %d absorbed misses", jp.Absorbed())
	}

	// A far-away outlier misses and is absorbed into the extent.
	dims := db.Schema().Dims()
	outlier := make(geom.Point, dims)
	for i := range outlier {
		outlier[i] = 1e6
	}
	if jp.Hit(outlier) {
		t.Fatal("extreme outlier should miss the prefilter")
	}
	if jp.Absorbed() != 1 {
		t.Fatalf("after one miss, Absorbed() = %d", jp.Absorbed())
	}
	// The absorbed outlier has grown the extent: a nearby point now hits
	// even though no stored series is anywhere near it.
	near := outlier.Clone()
	near[0] += 0.5
	if !jp.Hit(near) {
		t.Fatal("point near an absorbed outlier should hit the grown extent")
	}

	// Retag re-anchors to the live store bounds, shedding the growth.
	jp.Retag(db.FeatureBounds())
	if jp.Absorbed() != 0 {
		t.Fatalf("after Retag, Absorbed() = %d", jp.Absorbed())
	}
	if jp.Hit(near) {
		t.Fatal("retagged extent should have shed the absorbed outlier")
	}
	if jp.Absorbed() != 1 {
		t.Fatalf("the post-Retag miss should absorb again, Absorbed() = %d", jp.Absorbed())
	}

	// A point inside the live extent still hits after Retag — re-anchoring
	// must not under-approximate the store.
	for _, sid := range db.IDs()[:10] {
		p, ok := db.FeaturePoint(sid)
		if !ok {
			t.Fatalf("no feature point for id %d", sid)
		}
		if !jp.Hit(p) {
			t.Fatalf("stored series %d escaped the retagged extent", sid)
		}
	}
}
