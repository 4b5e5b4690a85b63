package pagefile

import (
	"bytes"
	"sync"
	"testing"
)

func TestNewBufferPoolValidation(t *testing.T) {
	f := New(8)
	if _, err := NewBufferPool(f, 0); err == nil {
		t.Fatal("capacity 0 should fail")
	}
	bp, err := NewBufferPool(f, 3)
	if err != nil || bp.Capacity() != 3 {
		t.Fatalf("NewBufferPool: %v", err)
	}
}

func TestBufferPoolHitsAndMisses(t *testing.T) {
	f := New(8)
	first, count, _ := f.AppendPages(bytes.Repeat([]byte{7}, 24)) // 3 pages
	f.ResetStats()
	bp, _ := NewBufferPool(f, 10)

	if _, err := bp.ViewInto(first, count, nil); err != nil {
		t.Fatal(err)
	}
	bp.Release(first, count)
	h, m := bp.HitsMisses()
	if h != 0 || m != 3 {
		t.Fatalf("cold read: hits=%d misses=%d", h, m)
	}
	if f.Stats().Reads != 3 {
		t.Fatalf("physical reads = %d, want 3", f.Stats().Reads)
	}
	// Second read hits entirely.
	if _, err := bp.ViewInto(first, count, nil); err != nil {
		t.Fatal(err)
	}
	bp.Release(first, count)
	h, m = bp.HitsMisses()
	if h != 3 || m != 3 {
		t.Fatalf("warm read: hits=%d misses=%d", h, m)
	}
	if f.Stats().Reads != 3 {
		t.Fatalf("physical reads grew on hit: %d", f.Stats().Reads)
	}
}

func TestBufferPoolEviction(t *testing.T) {
	f := New(8)
	var locs [][2]int
	for i := 0; i < 5; i++ {
		first, count, _ := f.AppendPages([]byte{byte(i), 0, 0, 0, 0, 0, 0, 0})
		locs = append(locs, [2]int{first, count})
	}
	bp, _ := NewBufferPool(f, 2) // holds 2 of 5 pages
	// Touch pages 0, 1, 2: page 0 evicted.
	for i := 0; i < 3; i++ {
		if _, err := bp.ViewInto(locs[i][0], 1, nil); err != nil {
			t.Fatal(err)
		}
		bp.Release(locs[i][0], 1)
	}
	f.ResetStats()
	if _, err := bp.ViewInto(locs[0][0], 1, nil); err != nil { // must miss again
		t.Fatal(err)
	}
	bp.Release(locs[0][0], 1)
	if f.Stats().Reads != 1 {
		t.Fatalf("evicted page re-read should be physical, reads=%d", f.Stats().Reads)
	}
	// Most recent (page 2) still cached.
	f.ResetStats()
	if _, err := bp.ViewInto(locs[2][0], 1, nil); err != nil {
		t.Fatal(err)
	}
	bp.Release(locs[2][0], 1)
	if f.Stats().Reads != 0 {
		t.Fatalf("MRU page should hit, reads=%d", f.Stats().Reads)
	}
}

func TestBufferPoolReadMatchesFile(t *testing.T) {
	f := New(8)
	data := []byte("hello across several pages!")
	first, count, _ := f.AppendPages(data)
	bp, _ := NewBufferPool(f, 4)
	got, err := bp.ReadInto(first, count, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("pooled read = %q", got)
	}
}

func TestBufferPoolBounds(t *testing.T) {
	f := New(8)
	f.AppendPages([]byte("x"))
	bp, _ := NewBufferPool(f, 2)
	if _, err := bp.ViewInto(-1, 1, nil); err == nil {
		t.Error("negative page should fail")
	}
	if _, err := bp.ViewInto(9, 1, nil); err == nil {
		t.Error("out-of-range page should fail")
	}
	if _, err := bp.ViewInto(0, 5, nil); err == nil {
		t.Error("out-of-range view should fail")
	}
}

func TestBufferPoolConcurrentReads(t *testing.T) {
	f := New(8)
	var firsts []int
	for i := 0; i < 20; i++ {
		first, _, _ := f.AppendPages(bytes.Repeat([]byte{byte(i)}, 8))
		firsts = append(firsts, first)
	}
	bp, _ := NewBufferPool(f, 5)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := firsts[(i*7+w)%len(firsts)]
				pg, err := bp.ViewInto(p, 1, nil)
				if err != nil || len(pg[0]) != 8 {
					t.Errorf("concurrent page read failed: %v", err)
					return
				}
				bp.Release(p, 1)
			}
		}(w)
	}
	wg.Wait()
	h, m := bp.HitsMisses()
	if h+m != 8*200 {
		t.Fatalf("hits+misses = %d, want %d", h+m, 8*200)
	}
	bp.ResetStats()
	if h, m := bp.HitsMisses(); h != 0 || m != 0 {
		t.Fatal("ResetStats did not zero counters")
	}
}
