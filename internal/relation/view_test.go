package relation

import (
	"math/cmplx"
	"testing"
)

// viewPages opens a record and takes its page views in one step.
func viewPages(t *testing.T, r *Relation, id int64) [][]byte {
	t.Helper()
	v, err := r.View(id)
	if err != nil {
		t.Fatal(err)
	}
	pages, err := r.ViewPagesInto(v, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pages
}

func TestViewPagesAndCursor(t *testing.T) {
	// Page size 64 bytes = 4 complex128 per page; a record of 10
	// coefficients spans 3 pages.
	r := New(64)
	coeffs := make([]complex128, 10)
	for i := range coeffs {
		coeffs[i] = complex(float64(i), float64(-i))
	}
	if err := r.InsertRaw(1, AppendComplex(nil, coeffs)); err != nil {
		t.Fatal(err)
	}
	r.ResetStats()
	pages := viewPages(t, r, 1)
	if len(pages) != 3 {
		t.Fatalf("record spans %d pages, want 3", len(pages))
	}
	if got := r.Stats().Reads; got != 3 {
		t.Fatalf("ViewPages charged %d reads, want 3", got)
	}
	// From every starting coefficient: the cursor's one division lands on
	// the right (page, offset) and the steps from there cross pages.
	for from := range coeffs {
		cur := CursorAt(pages, r.PageSize(), from)
		for i := from; i < len(coeffs); i++ {
			if got := cur.Next(); cmplx.Abs(got-coeffs[i]) > 0 {
				t.Fatalf("from %d: coefficient %d = %v, want %v", from, i, got, coeffs[i])
			}
		}
	}
}

func TestCursorCrossPageImaginary(t *testing.T) {
	// Page size 24 bytes = 3 float64s: coefficient 1 has its real part
	// ending page 0 and imaginary part opening page 1, exercising the
	// cross-page guard.
	r := New(24)
	coeffs := []complex128{1 + 2i, 3 + 4i, 5 + 6i}
	if err := r.InsertRaw(9, AppendComplex(nil, coeffs)); err != nil {
		t.Fatal(err)
	}
	pages := viewPages(t, r, 9)
	for from := range coeffs {
		cur := CursorAt(pages, 24, from)
		for i := from; i < len(coeffs); i++ {
			if got := cur.Next(); got != coeffs[i] {
				t.Fatalf("from %d: coefficient %d = %v, want %v", from, i, got, coeffs[i])
			}
		}
	}
}

func TestViewMissing(t *testing.T) {
	r := New(0)
	if _, err := r.View(42); err == nil {
		t.Fatal("missing id should fail")
	}
}

func TestAccessors(t *testing.T) {
	r := New(128)
	if r.PageSize() != 128 {
		t.Fatalf("PageSize = %d", r.PageSize())
	}
	r.Insert(3, make([]float64, 64)) // 512 bytes = 4 pages
	r.Insert(5, make([]float64, 1))
	if r.Pages() != 5 {
		t.Fatalf("Pages = %d, want 5", r.Pages())
	}
	ids := r.IDs()
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 5 {
		t.Fatalf("IDs = %v", ids)
	}
}
