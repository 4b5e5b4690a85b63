package relation

import (
	"math"
	"path/filepath"
	"slices"
	"testing"
)

func newDiskRel(t *testing.T, pageSize, cachePages int) *Relation {
	t.Helper()
	r, err := NewDisk(filepath.Join(t.TempDir(), "rel.db"), pageSize, cachePages)
	if err != nil {
		t.Fatalf("NewDisk: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func seriesFor(id int64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Sin(float64(id)*0.7 + float64(i)*0.1)
	}
	return out
}

// TestDiskRelationParity runs the same insert/replace/get/view workload
// against a memory and a disk relation (tiny cache, so eviction churns)
// and requires identical results.
func TestDiskRelationParity(t *testing.T) {
	mem := New(64)
	disk := newDiskRel(t, 64, 4)
	if !disk.DiskBacked() || mem.DiskBacked() {
		t.Fatal("DiskBacked misreports backing kind")
	}
	const n = 40
	for id := int64(0); id < n; id++ {
		vec := seriesFor(id, 48) // 384 bytes = 6 pages of 64
		if err := mem.Insert(id, vec); err != nil {
			t.Fatal(err)
		}
		if err := disk.Insert(id, vec); err != nil {
			t.Fatal(err)
		}
	}
	// In-place replace half the records (same length -> Overwrite path).
	for id := int64(0); id < n; id += 2 {
		vec := seriesFor(id+100, 48)
		if err := mem.Replace(id, vec); err != nil {
			t.Fatal(err)
		}
		if err := disk.Replace(id, vec); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(0); id < n; id++ {
		a, err := mem.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := disk.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("id %d coeff %d: mem %v != disk %v", id, i, a[i], b[i])
			}
		}
		// Pinned page views must match the copied read too.
		v, err := disk.View(id)
		if err != nil {
			t.Fatal(err)
		}
		pages, err := disk.ViewPagesInto(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, pg := range pages {
			got += len(pg)
		}
		if got != 8*len(a) {
			t.Fatalf("id %d: view covers %d bytes, want %d", id, got, 8*len(a))
		}
		disk.ReleaseView(v)
	}
	if info, ok := disk.PoolInfo(); !ok {
		t.Fatal("disk relation must report pool info")
	} else {
		if info.Pinned != 0 {
			t.Fatalf("%d pins leaked", info.Pinned)
		}
		if info.Evictions == 0 {
			t.Fatal("tiny cache over 240 pages should have evicted")
		}
		if info.Resident > info.Capacity {
			t.Fatalf("resident %d > capacity %d with nothing pinned", info.Resident, info.Capacity)
		}
	}
	// Get parity after the churn: the same ids in the same insertion order,
	// and every record reads back from the pool as from memory.
	if !slices.Equal(mem.IDs(), disk.IDs()) {
		t.Fatalf("ids: disk %v, memory %v", disk.IDs(), mem.IDs())
	}
	for _, id := range mem.IDs() {
		want, err := mem.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := disk.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("id %d: disk Get %v, memory Get %v", id, got, want)
		}
	}
}
