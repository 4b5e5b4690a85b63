package core

import (
	"runtime"
	"testing"

	"repro/internal/pagefile"
	"repro/internal/plan"
	"repro/internal/transform"
)

// settledMapped collects until the cleanups of Files that earlier tests
// dropped have run, and returns the page memory still mapped.
func settledMapped() int64 {
	for i := 0; i < 100; i++ {
		before := pagefile.MappedBytes()
		runtime.GC()
		runtime.Gosched()
		if pagefile.MappedBytes() == before {
			break
		}
	}
	return pagefile.MappedBytes()
}

// TestPagesLiveOffTheHeap: a 4,000 x 256 memory store's pages — its
// windows and half spectra, 16.4 MB — are mapped outside the Go heap, so
// the live heap grows by less than a quarter of them (the resident heads,
// leaf prefixes, points, trees and directories) while the mapped bytes grow
// by at least them, and Close gives every mapped byte back.
func TestPagesLiveOffTheHeap(t *testing.T) {
	const count, n = 4000, 256
	names, values := walks(count, n, 21)
	pageBytes := int64(count * (8*n + 16*halfLen(n)))
	base := settledMapped()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := NewStore(n, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InsertBulk(names, values); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	mapped := pagefile.MappedBytes() - base
	t.Logf("pages %d B: heap grew %d B, mapped %d B", pageBytes, grew, mapped)
	if grew >= pageBytes/4 {
		t.Errorf("the live heap grew by %d B, want < %d (a quarter of the %d page bytes)", grew, pageBytes/4, pageBytes)
	}
	if mapped < pageBytes {
		t.Errorf("%d B mapped for %d page bytes", mapped, pageBytes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if left := pagefile.MappedBytes() - base; left > 0 {
		t.Errorf("%d B still mapped after Close", left)
	}
	runtime.KeepAlive(values)
}

// TestCompactUnmapsTheOldGeneration: a compaction that drops three series
// in four maps the new generation's pages and unmaps the old one's, so the
// store maps less than half what it did; Close then unmaps the rest.
func TestCompactUnmapsTheOldGeneration(t *testing.T) {
	const count, n = 1000, 256
	names, values := walks(count, n, 22)
	base := settledMapped()
	s, err := NewStore(n, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InsertBulk(names, values); err != nil {
		t.Fatal(err)
	}
	held := pagefile.MappedBytes() - base
	for i, name := range names {
		if i%4 != 0 && !s.Delete(name) {
			t.Fatalf("delete %s", name)
		}
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	compacted := pagefile.MappedBytes() - base
	t.Logf("mapped %d B before Compact, %d B after", held, compacted)
	if compacted >= held/2 {
		t.Errorf("%d B mapped after a compaction that kept a quarter of %d B", compacted, held)
	}
	// The compacted store still answers from its new pages.
	q := values[4]
	res, _, err := forcedRange(s, RangeQuery{Values: q, Eps: 0.5, Transform: transform.Identity(n)}, plan.ScanTime)
	if err != nil || len(res) == 0 || res[0].ID != 4 {
		t.Fatalf("after Compact: %v, %v", res, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if left := pagefile.MappedBytes() - base; left > 0 {
		t.Errorf("%d B still mapped after Close", left)
	}
}

// TestDroppedStoreIsUnmapped: a memory store dropped without Close has its
// chunks unmapped once the collector finds it unreachable (the Files'
// cleanups). The test waits on the mapped count, collecting, for up to a
// thousand cycles.
func TestDroppedStoreIsUnmapped(t *testing.T) {
	const count, n = 1000, 256
	names, values := walks(count, n, 23)
	base := settledMapped()
	func() {
		s, err := NewStore(n, 4, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.InsertBulk(names, values); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Insert("one more", values[0]); err != nil {
			t.Fatal(err)
		}
	}()
	if pagefile.MappedBytes() <= base {
		t.Fatal("the store mapped nothing")
	}
	for i := 0; i < 1000 && pagefile.MappedBytes() > base; i++ {
		runtime.GC()
		runtime.Gosched()
	}
	if left := pagefile.MappedBytes() - base; left > 0 {
		t.Errorf("%d B still mapped after the store was dropped", left)
	}
}
