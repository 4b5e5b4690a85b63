//go:build unix

package core

import (
	"fmt"
	"strings"
	"syscall"
	"testing"
)

// TestFailedBulkLoadLeavesAFreshStore: an InsertBulk onto disk whose page
// writes fail part way — at a file-size limit of 150 spectra, past the 64
// pages a run writes singly and short of a shard's records, so a gathered
// run's write is what fails — returns that error and leaves every shard
// empty: no series listed, no record in a relation, no point in an index.
// The same InsertBulk run again loads a store that answers every query kind
// as the memory store does. (The limit covers every file the process
// writes while it holds, the go tool's test log among them, so it is kept
// at about 300 KB and the store is large enough to pass it in every shard
// of four.)
func TestFailedBulkLoadLeavesAFreshStore(t *testing.T) {
	const count, length = 1000, 256 // a record is one page: 2,048 bytes, a spectrum 2,064
	names, values := walks(count, length, 13)
	resident, err := NewStore(length, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer resident.Close()
	if err := resident.InsertBulk(names, values); err != nil {
		t.Fatal(err)
	}
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, err := NewStore(length, shards, Options{Backing: t.TempDir(), CachePages: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			lim := old
			lim.Cur = 150 * 16 * (length/2 + 1)
			if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
				t.Skipf("cannot limit the file size: %v", err)
			}
			err = s.InsertBulk(names, values)
			if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); rerr != nil {
				t.Fatal(rerr)
			}
			if err == nil {
				t.Fatal("a bulk load past the file-size limit succeeded")
			}
			if !strings.Contains(err.Error(), "pagefile: write run of pages") {
				t.Fatalf("the bulk load failed outside a gathered run's write: %v", err)
			}
			if s.Len() != 0 {
				t.Fatalf("the failed bulk load left %d series listed", s.Len())
			}
			for si, sh := range s.shards {
				if sh.timeRel.Len()+sh.freqRel.Len()+len(sh.recs)+len(sh.byName)+sh.idx.Len() != 0 {
					t.Fatalf("shard %d keeps %d time and %d frequency records, %d entries and %d points after the failed load",
						si, sh.timeRel.Len(), sh.freqRel.Len(), len(sh.recs), sh.idx.Len())
				}
			}
			if err := s.InsertBulk(names, values); err != nil {
				t.Fatal(err)
			}
			allKindsParity(t, resident.Engine(), s.Engine(), length)
		})
	}
}
