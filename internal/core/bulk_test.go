package core

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

// TestBulkLoadSameAtEveryWorkerCount: a bulk load derives on as many
// workers as GOMAXPROCS allows and packs the index beside the page runs,
// and the store it leaves is the same bytes at one worker and at four —
// points, records, packed trees — at one shard and at four, in memory and
// on disk. Every series reads back as its input window, bit for bit: the
// workers encode the time records the relations then own.
func TestBulkLoadSameAtEveryWorkerCount(t *testing.T) {
	const count, n = 1500, 64 // 1500/256 = 5 ranges at GOMAXPROCS 4
	names, values := walks(count, n, 11)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, shards := range []int{1, 4} {
		var want []byte
		for _, disk := range []bool{false, true} {
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				label := fmt.Sprintf("shards=%d disk=%t GOMAXPROCS=%d", shards, disk, procs)
				var opts Options
				if disk {
					opts = Options{Backing: t.TempDir(), CachePages: 8}
				}
				s, err := NewStore(n, shards, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.InsertBulk(names, values); err != nil {
					t.Fatal(err)
				}
				for i, v := range values {
					got, err := s.Series(int64(i))
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !sameBits(got, v) {
						t.Fatalf("%s: series %d reads back as %v, want %v", label, i, got, v)
					}
				}
				got := writeSnapshot(t, s)
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Fatalf("%s: the snapshot differs from the one in memory at GOMAXPROCS 1", label)
				}
			}
		}
	}
}

// sameBits reports whether two windows hold the same float64 bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestInsertBulkAllocs bounds the objects a memory bulk load allocates per
// window at n = 256. The workers encode each window's time record into
// blocks the relation adopts as its pages, where a per-window Insert
// allocated an encoding of its own: 4,096 windows allocated 4.31 objects a
// window before and 3.31 after.
func TestInsertBulkAllocs(t *testing.T) {
	if testing.CoverMode() != "" || raceEnabled {
		t.Skip("instrumentation allocates")
	}
	const count, n = 4096, 256
	names, values := walks(count, n, 13)
	a := testing.AllocsPerRun(5, func() {
		s, err := NewStore(n, 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.InsertBulk(names, values); err != nil {
			t.Fatal(err)
		}
		s.Close()
	})
	if perWindow := a / count; perWindow > 3.5 {
		t.Errorf("a bulk load of %d windows: %.2f allocs a window, want <= 3.5", count, perWindow)
	}
}

// TestInsertBulkFirstErrorInBatchOrder: with an empty name, a duplicate, a
// wrong length and a NaN in four different workers' ranges, in every order,
// and with NaNs in any set of the ranges, a bulk load names the earliest —
// the one a serial pass would have met first — and leaves the store fresh
// for a valid batch.
func TestInsertBulkFirstErrorInBatchOrder(t *testing.T) {
	const count, n = 1100, 32 // 1100/256 = 4 ranges at GOMAXPROCS 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	names, values := walks(count, n, 12)
	faults := []struct {
		kind  string
		apply func(names []string, values [][]float64, at int)
		want  func(names []string, at int) string
	}{
		{"empty name",
			func(names []string, _ [][]float64, at int) { names[at] = "" },
			func(_ []string, at int) string { return fmt.Sprintf("core: empty series name at position %d", at) }},
		{"duplicate",
			func(names []string, _ [][]float64, at int) { names[at] = names[0] },
			func(names []string, _ int) string { return fmt.Sprintf("core: duplicate series name %q", names[0]) }},
		{"wrong length",
			func(_ []string, values [][]float64, at int) { values[at] = values[at][:n-1] },
			func(names []string, at int) string {
				return fmt.Sprintf("core: series %q has length %d, DB expects %d", names[at], n-1, n)
			}},
		{"NaN",
			func(_ []string, values [][]float64, at int) {
				values[at] = append([]float64(nil), values[at]...)
				values[at][5] = math.NaN()
			},
			func(names []string, at int) string {
				return fmt.Sprintf("core: series %q has a non-finite value at position 5", names[at])
			}},
	}
	// at is the fault's position in range r: never position 0, which the
	// duplicate copies.
	at := func(r int) int { return r*count/4 + 17 + 3*r }
	type batch struct {
		label string
		names []string
		vals  [][]float64
		want  string
	}
	var batches []batch
	for _, order := range permutations(len(faults)) {
		bn, bv := append([]string(nil), names...), append([][]float64(nil), values...)
		var kinds []string
		for r, f := range order {
			faults[f].apply(bn, bv, at(r))
			kinds = append(kinds, faults[f].kind)
		}
		batches = append(batches, batch{strings.Join(kinds, ","), bn, bv, faults[order[0]].want(bn, at(0))})
	}
	for set := 1; set < 1<<4; set++ {
		bn, bv := append([]string(nil), names...), append([][]float64(nil), values...)
		first := -1
		for r := 3; r >= 0; r-- {
			if set&(1<<r) != 0 {
				faults[3].apply(bn, bv, at(r))
				first = at(r)
			}
		}
		batches = append(batches, batch{fmt.Sprintf("NaNs in ranges %04b", set), bn, bv, faults[3].want(bn, first)})
	}
	for _, b := range batches {
		for _, shards := range []int{1, 4} {
			label := fmt.Sprintf("shards=%d/%s", shards, b.label)
			s, err := NewStore(n, shards, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.InsertBulk(b.names, b.vals); err == nil || err.Error() != b.want {
				t.Fatalf("%s: error %v, want %s", label, err, b.want)
			}
			if s.Len() != 0 {
				t.Fatalf("%s: refused batch left %d series", label, s.Len())
			}
			for si, sh := range s.shards {
				if len(sh.ids) != 0 || sh.idx.Len() != 0 || sh.timeRel.Len() != 0 || sh.freqRel.Len() != 0 {
					t.Fatalf("%s: shard %d populated by a refused batch", label, si)
				}
			}
			if err := s.InsertBulk(names, values); err != nil || s.Len() != count {
				t.Fatalf("%s: valid batch after the refusal: %v, %d series", label, err, s.Len())
			}
			s.Close()
		}
	}
}

// permutations lists every order of 0 … n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int(nil), p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}
