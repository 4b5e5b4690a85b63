package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestSecondStoreCannotTakeItsBacking: a store cannot open a page file
// another open store holds in the same Backing directory — not by NewStore
// before a bulk load, not by an adopt — and the error names the file. The
// first store keeps answering with its own series, its directory lists
// what it listed, and once it is closed the directory is free again.
func TestSecondStoreCannotTakeItsBacking(t *testing.T) {
	const count, length = 64, 64
	names, values := walks(count, length, 21)
	otherNames, otherValues := walks(count, length, 22)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			resident, err := NewStore(length, shards, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer resident.Close()
			if err := resident.InsertBulk(names, values); err != nil {
				t.Fatal(err)
			}
			other, err := NewStore(length, shards, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer other.Close()
			if err := other.InsertBulk(otherNames, otherValues); err != nil {
				t.Fatal(err)
			}
			snap := writeSnapshot(t, other.Engine())

			dir := t.TempDir()
			opts := Options{Backing: dir, CachePages: 4}
			a, err := NewStore(length, shards, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.InsertBulk(names, values); err != nil {
				a.Close()
				t.Fatal(err)
			}
			want := listDir(t, dir)
			check := func(label string, err error) {
				t.Helper()
				if err == nil {
					t.Errorf("%s: a second store opened the page files of an open one", label)
				} else if !slices.ContainsFunc(want, func(f string) bool {
					return strings.HasSuffix(f, ".pages") && strings.Contains(err.Error(), filepath.Join(dir, f))
				}) {
					t.Errorf("%s: the error names none of the held page files: %v", label, err)
				}
				if got := listDir(t, dir); !slices.Equal(got, want) {
					t.Errorf("%s: the backing directory lists %v, before it listed %v", label, got, want)
				}
				for i, name := range names {
					id, ok := a.IDByName(name)
					if !ok {
						t.Fatalf("%s: the first store lost %s", label, name)
					}
					if got, err := a.Series(id); err != nil || !slices.Equal(got, values[i]) {
						t.Fatalf("%s: the first store's %s reads back other values (err %v)", label, name, err)
					}
				}
			}

			b, err := NewStore(length, shards, opts)
			if err == nil {
				b.InsertBulk(otherNames, otherValues)
				b.Close()
			}
			check("bulk load", err)
			eng, err := ReadEngine(bytes.NewReader(snap), opts, shards)
			if err == nil {
				eng.Close()
			}
			check("adopt", err)
			allKindsParity(t, resident.Engine(), a.Engine(), length)

			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if left := listDir(t, dir); len(left) != 0 {
				t.Fatalf("closing the first store left %v", left)
			}
			eng, err = ReadEngine(bytes.NewReader(snap), opts, shards)
			if err != nil {
				t.Fatalf("an adopt onto the directory the closed store left: %v", err)
			}
			allKindsParity(t, other.Engine(), eng, length)
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBackingHoldsOnlyPayload: a disk page file is as long as the payloads
// of its pages — a page takes the bytes it holds, not a page-sized slot —
// after every kind of write: a bulk load, an insert, an in-place update and
// append, a size-changing replacement (its old pages orphaned, its new
// ones appended), a delete and a compaction, and an adopt. At 2,000 series
// of 256 values every page holds one record, so a series takes exactly
// 8·256 bytes of the time file and 16·129 of the frequency file.
func TestBackingHoldsOnlyPayload(t *testing.T) {
	const count, length = 2000, 256
	const timeBytes, freqBytes = 8 * length, 16 * (length/2 + 1)
	names, values := walks(count+1, length, 17)
	encode := func(vec []float64) []byte {
		out := make([]byte, 8*len(vec))
		for i, v := range vec {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
		}
		return out
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// extra is the bytes shard i's time file holds past timeBytes
			// a page: the one page that holds a longer record.
			extra := make([]int64, shards)
			// check compares every page file of s with the payloads of its
			// pages, and with its series when no page is orphaned.
			check := func(step string, s *Store, orphans bool) {
				t.Helper()
				var timeTotal, freqTotal int64
				for i, sh := range s.shards {
					files := []struct {
						name  string
						pages int
						want  int64
						total *int64
					}{
						{"time", sh.timeRel.Pages(), int64(sh.timeRel.Pages())*timeBytes + extra[i], &timeTotal},
						{"freq", sh.freqRel.Pages(), int64(sh.freqRel.Pages()) * freqBytes, &freqTotal},
					}
					for _, f := range files {
						path := filepath.Join(sh.opts.Backing, fmt.Sprintf("%s-g%03d.pages", f.name, sh.gen))
						fi, err := os.Stat(path)
						if err != nil {
							t.Fatalf("%s: %v", step, err)
						}
						if fi.Size() != f.want {
							t.Errorf("%s: shard %d's %s file is %d bytes, its %d pages hold %d", step, i, f.name, fi.Size(), f.pages, f.want)
						}
						*f.total += fi.Size()
					}
				}
				if orphans {
					return
				}
				if n := int64(s.Len()); timeTotal != n*timeBytes || freqTotal != n*freqBytes {
					t.Errorf("%s: %d series take %d bytes of time files and %d of frequency files, want %d and %d",
						step, n, timeTotal, freqTotal, n*timeBytes, n*freqBytes)
				}
			}

			s, err := NewStore(length, shards, Options{Backing: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.InsertBulk(names[:count], values[:count]); err != nil {
				t.Fatal(err)
			}
			check("InsertBulk", s, false)
			if _, err := s.Insert(names[count], values[count]); err != nil {
				t.Fatal(err)
			}
			check("Insert", s, false)
			if _, err := s.Update(names[0], values[1]); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Append(names[2], []float64{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			check("Update, Append", s, false)

			// A longer record moves to fresh pages, and back to the old
			// size onto fresh pages again: both earlier copies are orphans.
			si := s.ShardOf(names[3])
			sh := s.shards[si]
			id, _ := s.IDByName(names[3])
			if err := sh.timeRel.ReplaceRaw(id, encode(append(slices.Clone(values[3]), 1, 2))); err != nil {
				t.Fatal(err)
			}
			if err := sh.timeRel.ReplaceRaw(id, encode(values[3])); err != nil {
				t.Fatal(err)
			}
			extra[si] = 16
			check("ReplaceRaw", s, true)
			if got, err := s.Series(id); err != nil || !slices.Equal(got, values[3]) {
				t.Fatalf("the replaced record reads back wrong (err %v)", err)
			}

			for _, name := range names[4:40] {
				s.Delete(name)
			}
			if _, err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			clear(extra)
			check("Delete, Compact", s, false)

			eng, err := ReadEngine(bytes.NewReader(writeSnapshot(t, s.Engine())), Options{Backing: t.TempDir()}, shards)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			check("adopt", storeOf(eng), false)
		})
	}
}
