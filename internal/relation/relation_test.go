package relation

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dft"
)

func TestInsertGetRoundTrip(t *testing.T) {
	r := New(64)
	vecs := map[int64][]float64{
		1: {1.5, -2.25, math.Pi},
		2: {},
		3: make([]float64, 100), // spans pages at size 64
	}
	for i := range vecs[3] {
		vecs[3][i] = float64(i) * 0.5
	}
	for id, v := range vecs {
		if err := r.Insert(id, v); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	for id, want := range vecs {
		got, err := r.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("id %d: len %d != %d", id, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("id %d elem %d: %v != %v", id, i, got[i], want[i])
			}
		}
	}
}

func TestInsertDuplicate(t *testing.T) {
	r := New(0)
	if err := r.Insert(1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(1, []float64{2}); err == nil {
		t.Fatal("duplicate insert should fail")
	}
}

func TestGetMissing(t *testing.T) {
	r := New(0)
	if _, err := r.Get(42); err == nil {
		t.Fatal("missing id should fail")
	}
}

// TestComplexRoundTrip: a record AppendComplex builds reads back through Get
// and DecodeComplex as the same values, AppendComplex appends to what dst
// holds, and ReplaceRaw overwrites a record in place.
func TestComplexRoundTrip(t *testing.T) {
	in := []complex128{1 + 2i, -3.5, 0, 4i, complex(math.Inf(-1), math.SmallestNonzeroFloat64)}
	r := New(64)
	if err := r.InsertRaw(1, AppendComplex(make([]byte, 0, 16*len(in)), in)); err != nil {
		t.Fatal(err)
	}
	get := func() []complex128 {
		t.Helper()
		vec, err := r.Get(1)
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecodeComplex(vec)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if got := get(); !reflect.DeepEqual(got, in) {
		t.Fatalf("complex round trip: %v, want %v", got, in)
	}
	if got := AppendComplex([]byte{9}, in[:1]); len(got) != 17 || got[0] != 9 {
		t.Fatalf("AppendComplex did not append: %v", got)
	}
	pages := r.Pages()
	repl := []complex128{5, 6i, -7, 8 + 8i, 0}
	if err := r.ReplaceRaw(1, AppendComplex(nil, repl)); err != nil {
		t.Fatal(err)
	}
	if got := get(); !reflect.DeepEqual(got, repl) || r.Pages() != pages {
		t.Fatalf("ReplaceRaw: record %v, %d pages (was %d)", got, r.Pages(), pages)
	}
	if _, err := DecodeComplex([]float64{1, 2, 3}); err == nil {
		t.Fatal("odd-length decode should fail")
	}
}

// TestHalfSpectrumFrontsEnergy: the frequency relation stores a spectrum's
// first n/2+1 coefficients in natural order (its other half is the complex
// conjugate of this one), and for random-walk series (the paper's synthetic
// workload) that order is energy order: the first quarter of the stored
// coefficients carries most of the energy, so a scan accumulating squared
// distance in storage order abandons as early as possible.
func TestHalfSpectrumFrontsEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 128
	s := make([]float64, n)
	v := 50.0
	for i := range s {
		v += rng.Float64()*8 - 4
		s[i] = v
	}
	half := dft.TransformReal(s)[:n/2+1]
	var head, total float64
	for i, c := range half {
		e := real(c)*real(c) + imag(c)*imag(c)
		total += e
		if i < len(half)/4 {
			head += e
		}
	}
	if head/total < 0.9 {
		t.Fatalf("the half spectrum concentrated only %.2f of its energy in its first quarter", head/total)
	}
}

// TestSortedIDs: IDs lists the stored ids in insertion order, and sorted
// they are the ids inserted.
func TestSortedIDs(t *testing.T) {
	r := New(0)
	for _, id := range []int64{5, 1, 9, 3} {
		r.Insert(id, []float64{0})
	}
	if got := r.IDs(); !slices.Equal(got, []int64{5, 1, 9, 3}) {
		t.Fatalf("IDs = %v, want insertion order", got)
	}
	got := slices.Sorted(slices.Values(r.IDs()))
	want := []int64{1, 3, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted IDs = %v", got)
		}
	}
}
