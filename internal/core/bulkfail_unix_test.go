//go:build unix

package core

import (
	"fmt"
	"syscall"
	"testing"

	"repro/internal/pagefile"
)

// TestFailedBulkLoadLeavesAFreshStore: an InsertBulk onto disk whose page
// writes fail part way — at a file-size limit past the pages a run writes
// singly, so a run's write is what fails — returns the error and leaves
// every shard empty: no series listed, no record in a relation, no point in
// an index. The same InsertBulk run again loads a store that answers every
// query kind as the memory store does.
func TestFailedBulkLoadLeavesAFreshStore(t *testing.T) {
	const count, length = 600, 64 // a record is one page
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
			lim.Cur = 80 * pagefile.DefaultPageSize
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
