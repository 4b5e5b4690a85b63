package relation

import (
	"path/filepath"
	"testing"
)

func TestReplaceInPlace(t *testing.T) {
	r := New(64) // 8 floats per page
	orig := make([]float64, 20)
	for i := range orig {
		orig[i] = float64(i)
	}
	if err := r.Insert(1, orig); err != nil {
		t.Fatal(err)
	}
	pages := r.Pages()
	repl := make([]float64, 20)
	for i := range repl {
		repl[i] = float64(100 + i)
	}
	if err := r.Replace(1, repl); err != nil {
		t.Fatal(err)
	}
	if r.Pages() != pages {
		t.Fatalf("same-size replace grew storage: %d -> %d pages", pages, r.Pages())
	}
	got, err := r.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range repl {
		if got[i] != repl[i] {
			t.Fatalf("Get after Replace = %v, want %v", got, repl)
		}
	}
}

func TestReplaceSizeChangeFallsBack(t *testing.T) {
	r := New(64)
	if err := r.Insert(1, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	longer := make([]float64, 30)
	for i := range longer {
		longer[i] = float64(i)
	}
	pages := r.Pages()
	if err := r.Replace(1, longer); err != nil {
		t.Fatal(err)
	}
	if r.Pages() <= pages {
		t.Fatalf("size-changing replace should append fresh pages (%d -> %d)", pages, r.Pages())
	}
	got, err := r.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(longer) || got[29] != 29 {
		t.Fatalf("Get after size-changing Replace = %v", got)
	}
}

func TestReplaceUnknownID(t *testing.T) {
	r := New(0)
	if err := r.Replace(7, []float64{1}); err == nil {
		t.Fatal("Replace of unknown id should fail")
	}
}

func TestReplaceCoherentWithPool(t *testing.T) {
	r, err := NewDisk(filepath.Join(t.TempDir(), "rel.pages"), 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	vec := make([]float64, 16)
	for i := range vec {
		vec[i] = float64(i)
	}
	if err := r.Insert(1, vec); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(1); err != nil { // warm the pool
		t.Fatal(err)
	}
	for i := range vec {
		vec[i] = -float64(i)
	}
	if err := r.Replace(1, vec); err != nil {
		t.Fatal(err)
	}
	got, err := r.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vec {
		if got[i] != vec[i] {
			t.Fatalf("pooled read after Replace = %v, want %v (stale cache?)", got, vec)
		}
	}
}
