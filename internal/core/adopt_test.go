package core

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// listDir lists everything under dir, directories included, as paths
// relative to it.
func listDir(t testing.TB, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if path != dir {
			rel, _ := filepath.Rel(dir, path)
			out = append(out, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// walks returns count random walks of the given length as names and values.
func walks(count, length int, seed int64) ([]string, [][]float64) {
	data := dataset.RandomWalks(count, length, seed)
	names, values := make([]string, len(data)), make([][]float64, len(data))
	for i, d := range data {
		names[i], values[i] = d.Name, d.Values
	}
	return names, values
}

// TestDiskAdoptHoldsNoRecords: loading a snapshot onto disk streams its
// records into the page files, so what the load allocates is the names, the
// feature points, the resident heads and the trees with their leaf prefixes
// (128 bytes a series) — at most half the
// snapshot's bytes, at 4,000 and 20,000 series of 256 values and at one and
// four shards (holding every record before storing it, the load allocated
// 1.39 times the snapshot). A memory-backed load reads its records straight
// into its page memory, which is mapped outside the Go heap, so it is held
// to the same half (its records on the heap, it allocated about 1.25
// times the snapshot).
// The write that made the snapshot copies each series record as stored
// through one buffer, so it allocates at most a quarter of the snapshot's
// bytes (0.09 at 20,000 series; decoding each record and encoding it again
// cost 1.05). Under the race detector, whose instrumentation allocates, it
// loads the smaller store and checks no bound.
func TestDiskAdoptHoldsNoRecords(t *testing.T) {
	const length = 256
	counts := []int{4000, 20000}
	if raceEnabled {
		counts = counts[:1]
	}
	for _, count := range counts {
		names, values := walks(count, length, 3)
		for _, shards := range []int{1, 4} {
			path := filepath.Join(t.TempDir(), "store.tsq")
			func() {
				src, err := NewStore(length, shards, Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer src.Close()
				if err := src.InsertBulk(names, values); err != nil {
					t.Fatal(err)
				}
				f, err := os.Create(path)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				n, err := src.WriteTo(f)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
				t.Logf("%d x %d, %d shards: the write allocated %.2f x the snapshot's %d bytes", count, length, shards, ratio, n)
				if !raceEnabled && ratio > 0.25 {
					t.Errorf("%d x %d at %d shards: a snapshot write allocated %.2f x the snapshot, want <= 0.25", count, length, shards, ratio)
				}
			}()
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, disk := range []bool{false, true} {
				opts := Options{}
				if disk {
					opts.Backing = t.TempDir()
				}
				f, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				eng, err := ReadEngine(f, opts, 0)
				runtime.ReadMemStats(&after)
				f.Close()
				if err != nil {
					t.Fatal(err)
				}
				if eng.Len() != count || eng.Shards() != shards {
					t.Fatalf("loaded %d series over %d shards, want %d over %d", eng.Len(), eng.Shards(), count, shards)
				}
				eng.Close()
				ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(fi.Size())
				t.Logf("%d x %d, %d shards, disk %t: the load allocated %.2f x the snapshot's %d bytes", count, length, shards, disk, ratio, fi.Size())
				if !raceEnabled && ratio > 0.5 {
					t.Errorf("%d x %d at %d shards, disk %t: an adopt allocated %.2f x the snapshot, want <= 0.5", count, length, shards, disk, ratio)
				}
			}
		}
	}
}

// TestDiskLoadOverManyShards: a snapshot of 1,000 series of four values,
// recorded at 1,000 shards, loads onto disk at its recorded shard count
// within the 64 MiB TotalAlloc budget of
// TestSnapshotHeaderCannotSizeAnAllocation (it allocates about 22 MiB). A
// shard's page runs take memory only once its bulk write has seen a quarter
// run of pages, its buffer pools only once a page is read, and its first
// head chunk is 4 KiB, so what the load allocates follows the records, not
// the shard count the file records.
func TestDiskLoadOverManyShards(t *testing.T) {
	const count, length = 1000, 4
	names, values := walks(count, length, 9)
	src, err := NewStore(length, count, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.InsertBulk(names, values); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if _, err := src.WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	src.Close()
	dir := t.TempDir()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	eng, err := ReadEngine(bytes.NewReader(snap.Bytes()), Options{Backing: dir}, 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Len() != count || eng.Shards() != count {
		t.Fatalf("loaded %d series over %d shards, want %d over %d", eng.Len(), eng.Shards(), count, count)
	}
	if !slices.Equal(eng.Names(), names) {
		t.Fatal("the loaded store lists other names")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d series at %d shards (a %d-byte snapshot): the disk load allocated %.1f MiB", count, count, snap.Len(), float64(grew)/(1<<20))
	if grew > 64<<20 && !raceEnabled {
		t.Errorf("the disk load allocated %d MiB, want at most 64", grew>>20)
	}
	if left := listDir(t, dir); len(left) != 0 {
		t.Errorf("closing the store left %d entries in the backing directory", len(left))
	}
}

// TestCloseLeavesBackingAsFound: a disk-backed store removes what it
// created in its backing directory — page files and shard directories —
// and nothing else, whether it is closed after a bulk load, after churn and
// a Compact, after an adopt, or never returned by a load that failed. A
// file the caller keeps there and an empty shard directory that was there
// before the store stay.
func TestCloseLeavesBackingAsFound(t *testing.T) {
	const length = 32
	names, values := walks(60, length, 5)
	snap := writeSnapshot(t, smallSnapshotStore(t, 4, 60, length))
	var derv snapSection
	for _, sec := range sectionsOf(t, snap) {
		if sec.tag == "DERV" {
			derv = sec
		}
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "keep.txt"), []byte("the caller's"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(filepath.Join(dir, "shard-000"), 0o755); err != nil {
				t.Fatal(err)
			}
			want := listDir(t, dir)
			opts := Options{Backing: dir, CachePages: 4}
			check := func(label string) {
				t.Helper()
				if got := listDir(t, dir); !slices.Equal(got, want) {
					t.Errorf("%s: the backing directory lists %v, before the store it listed %v", label, got, want)
				}
			}

			s, err := NewStore(length, shards, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.InsertBulk(names, values); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			check("bulk load, close")

			if s, err = NewStore(length, shards, opts); err != nil {
				t.Fatal(err)
			}
			for i, name := range names {
				if _, err := s.Insert(name, values[i]); err != nil {
					t.Fatal(err)
				}
			}
			for _, name := range names[:20] {
				s.Delete(name)
			}
			if _, err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			check("inserts, deletes, compact, close")

			eng, err := ReadEngine(bytes.NewReader(snap), opts, shards)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			check("adopt, compact, close")

			// Cut inside DERV: every shard and its page files exist by then.
			if eng, err := ReadEngine(bytes.NewReader(snap[:(derv.payload+derv.end)/2]), opts, shards); err == nil {
				eng.Close()
				t.Fatal("a snapshot cut inside DERV loaded")
			}
			check("a load that failed in DERV")
		})
	}
}
