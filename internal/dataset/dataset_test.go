package dataset

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/series"
	"repro/internal/transform"
)

func TestRandomWalkShape(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		s := RandomWalk(r, 128)
		if len(s) != 128 {
			t.Fatalf("length %d", len(s))
		}
		if s[0] < 20 || s[0] > 99 {
			t.Fatalf("start value %v outside [20, 99]", s[0])
		}
		for i := 1; i < len(s); i++ {
			if d := math.Abs(s[i] - s[i-1]); d > 4+1e-9 {
				t.Fatalf("step %d of size %v exceeds 4", i, d)
			}
		}
	}
}

func TestRandomWalksDeterministic(t *testing.T) {
	a := RandomWalks(5, 32, 42)
	b := RandomWalks(5, 32, 42)
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatal("names differ across runs")
		}
		for j := range a[i].Values {
			if a[i].Values[j] != b[i].Values[j] {
				t.Fatal("values differ across runs with same seed")
			}
		}
	}
	c := RandomWalks(5, 32, 43)
	same := true
	for j := range a[0].Values {
		if a[0].Values[j] != c[0].Values[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical series")
	}
}

func TestStockLikeValidation(t *testing.T) {
	if _, err := StockLike(10, 128, 1, 3, 3, 3); err == nil {
		t.Error("too few series for planted pairs should fail")
	}
	if _, err := StockLike(100, 10, 1, 1, 1, 1); err == nil {
		t.Error("too-short length should fail")
	}
}

// nfDist is the normal-form distance, optionally after a transformation of
// both series.
func nfDist(a, b []float64, tr func([]float64) []float64) float64 {
	x, y := series.NormalForm(a), series.NormalForm(b)
	if tr != nil {
		x, y = tr(x), tr(y)
	}
	return series.EuclideanDistance(x, y)
}

func TestStockEnsemblePlantedStructure(t *testing.T) {
	e := DefaultStockEnsemble(7)
	if len(e.Series) != 1067 {
		t.Fatalf("series count %d", len(e.Series))
	}
	if len(e.RawPairs) != 3 || len(e.SmoothPairs) != 9 || len(e.ReversedPairs) != 4 {
		t.Fatalf("planted counts: %d/%d/%d", len(e.RawPairs), len(e.SmoothPairs), len(e.ReversedPairs))
	}
	mavg := func(s []float64) []float64 { return series.MovingAverageCircular(s, 20) }

	// Raw pairs: similar both raw and smoothed.
	for _, p := range e.RawPairs {
		a, b := e.Series[p.A].Values, e.Series[p.B].Values
		if d := nfDist(a, b, nil); d > e.Epsilon {
			t.Fatalf("raw pair %v raw distance %v > eps %v", p, d, e.Epsilon)
		}
		if d := nfDist(a, b, mavg); d > e.Epsilon {
			t.Fatalf("raw pair %v smoothed distance %v > eps", p, d)
		}
	}
	// Smooth pairs: dissimilar raw, similar after mavg20.
	for _, p := range e.SmoothPairs {
		a, b := e.Series[p.A].Values, e.Series[p.B].Values
		if d := nfDist(a, b, nil); d <= e.Epsilon {
			t.Fatalf("smooth pair %v raw distance %v should exceed eps", p, d)
		}
		if d := nfDist(a, b, mavg); d > e.Epsilon {
			t.Fatalf("smooth pair %v smoothed distance %v > eps", p, d)
		}
	}
	// Reversed pairs: similar after negation + smoothing.
	for _, p := range e.ReversedPairs {
		a, b := e.Series[p.A].Values, e.Series[p.B].Values
		neg := series.Negate(series.NormalForm(a))
		d := series.EuclideanDistance(
			series.MovingAverageCircular(neg, 20),
			series.MovingAverageCircular(series.NormalForm(b), 20))
		if d > e.Epsilon {
			t.Fatalf("reversed pair %v distance after reverse+mavg %v > eps", p, d)
		}
	}
}

func TestStockEnsembleNoAccidentalPairs(t *testing.T) {
	// The planted pairs must be the *only* pairs under the threshold —
	// Table 1's exact answer-set sizes depend on it. Checking all ~569k
	// pairs with full distances is slow; spot-check every planted source
	// against every other series.
	e := DefaultStockEnsemble(7)
	mavg := func(s []float64) []float64 { return series.MovingAverageCircular(s, 20) }
	planted := map[[2]int]bool{}
	mark := func(p Pair) {
		planted[[2]int{p.A, p.B}] = true
		planted[[2]int{p.B, p.A}] = true
	}
	for _, p := range e.RawPairs {
		mark(p)
	}
	for _, p := range e.SmoothPairs {
		mark(p)
	}
	check := map[int]bool{}
	for _, p := range e.AllMavgPairs() {
		check[p.A] = true
		check[p.B] = true
	}
	for src := range check {
		a := e.Series[src].Values
		am := mavg(series.NormalForm(a))
		for j := range e.Series {
			if j == src || planted[[2]int{src, j}] {
				continue
			}
			bm := mavg(series.NormalForm(e.Series[j].Values))
			if within, _ := series.EuclideanWithin(am, bm, e.Epsilon); within {
				t.Fatalf("accidental pair (%d, %d) under mavg threshold", src, j)
			}
		}
	}
}

func TestAllMavgPairsCount(t *testing.T) {
	e := DefaultStockEnsemble(1)
	if got := len(e.AllMavgPairs()); got != 12 {
		t.Fatalf("AllMavgPairs = %d, want 12 (Table 1)", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	in := []Series{
		{Name: "A", Values: []float64{1, 2.5, -3}},
		{Name: "B1", Values: []float64{0.125}},
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip count %d", len(out))
	}
	for i := range in {
		if out[i].Name != in[i].Name || len(out[i].Values) != len(in[i].Values) {
			t.Fatalf("series %d mismatch", i)
		}
		for j := range in[i].Values {
			if out[i].Values[j] != in[i].Values[j] {
				t.Fatalf("value %d/%d mismatch", i, j)
			}
		}
	}
}

func TestCSVComments(t *testing.T) {
	src := "# header\n\nX,1,2\n"
	out, err := ReadCSV(strings.NewReader(src))
	if err != nil || len(out) != 1 || out[0].Name != "X" {
		t.Fatalf("comments/blank handling: %v %v", out, err)
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("onlyname\n")); err == nil {
		t.Error("row without values should fail")
	}
	if _, err := ReadCSV(strings.NewReader("X,notanumber\n")); err == nil {
		t.Error("non-numeric value should fail")
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, []Series{{Name: "a,b", Values: []float64{1}}}); err == nil {
		t.Error("name with comma should fail")
	}
}

func TestWarpablePair(t *testing.T) {
	// Sanity for the warping example generator path: warping a half-rate
	// sample of a series reproduces series.Warp behavior end to end.
	r := rand.New(rand.NewSource(3))
	long := RandomWalk(r, 64)
	short := make([]float64, 32)
	for i := range short {
		short[i] = long[2*i]
	}
	warped := series.Warp(short, 2)
	if len(warped) != 64 {
		t.Fatal("warp length")
	}
	// The warp transformation coefficients applied to short's spectrum
	// must match warped's spectrum (already covered in transform tests;
	// here we just confirm dataset-scale series work).
	_ = transform.Warp(32, 2)
}
