package series

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dft"
)

// The motivating sequences of the paper's Example 1.1.
var (
	ex11s1 = []float64{36, 38, 40, 38, 42, 38, 36, 36, 37, 38, 39, 38, 40, 38, 37}
	ex11s2 = []float64{40, 37, 37, 42, 41, 35, 40, 35, 34, 42, 38, 35, 45, 36, 34}
)

func TestMeanStdBasics(t *testing.T) {
	s := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(s); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if sd := Std(s); sd != 2 {
		t.Fatalf("Std = %v, want 2", sd)
	}
	if Mean(nil) != 0 || Std(nil) != 0 || Var(nil) != 0 {
		t.Fatal("empty-series moments should be 0")
	}
}

func TestNormalFormProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(200)
		s := make([]float64, n)
		for i := range s {
			s[i] = r.NormFloat64()*50 + 100
		}
		nf := NormalForm(s)
		if m := Mean(nf); math.Abs(m) > 1e-9 {
			t.Fatalf("normal form mean = %v, want 0", m)
		}
		if sd := Std(nf); math.Abs(sd-1) > 1e-9 {
			t.Fatalf("normal form std = %v, want 1", sd)
		}
		// Decomposition s = mean + std*nf is exact.
		mu, sd := Mean(s), Std(s)
		for i := range s {
			if math.Abs(s[i]-(mu+sd*nf[i])) > 1e-9 {
				t.Fatalf("decomposition broken at %d", i)
			}
		}
	}
}

func TestNormalFormConstantSeries(t *testing.T) {
	nf := NormalForm([]float64{7, 7, 7})
	for _, v := range nf {
		if v != 0 {
			t.Fatalf("normal form of constant series = %v, want zeros", nf)
		}
	}
}

func TestNormalFormFirstDFTCoefficientIsZero(t *testing.T) {
	// The paper stores normal forms precisely because X_0 (proportional to
	// the mean) vanishes and can be dropped from the index.
	nf := NormalForm(ex11s1)
	c0 := dft.Slow(dft.ToComplex(nf))[0]
	if math.Hypot(real(c0), imag(c0)) > 1e-9 {
		t.Fatalf("X_0 of normal form = %v, want 0", c0)
	}
}

func TestNormalFormIntoMatches(t *testing.T) {
	// The one-pass variant writes the same bits into a reused buffer —
	// zeros over stale contents for a constant series — and returns the
	// moments Mean and Std compute.
	r := rand.New(rand.NewSource(2))
	buf := make([]float64, 64)
	for _, s := range [][]float64{ex11s1, {7, 7, 7}, nil} {
		for i := range buf {
			buf[i] = r.NormFloat64()
		}
		mean, std := NormalFormInto(buf, s)
		if mean != Mean(s) || std != Std(s) {
			t.Fatalf("moments (%v, %v), want (%v, %v)", mean, std, Mean(s), Std(s))
		}
		for i, v := range NormalForm(s) {
			if buf[i] != v {
				t.Fatalf("value %d: %v, NormalForm has %v", i, buf[i], v)
			}
		}
	}
}

func TestShiftScaleNegate(t *testing.T) {
	s := []float64{1, -2, 3}
	if got := Shift(s, 2); got[0] != 3 || got[1] != 0 || got[2] != 5 {
		t.Fatalf("Shift = %v", got)
	}
	if got := Scale(s, -2); got[0] != -2 || got[1] != 4 || got[2] != -6 {
		t.Fatalf("Scale = %v", got)
	}
	if got := Negate(s); got[0] != -1 || got[1] != 2 || got[2] != -3 {
		t.Fatalf("Negate = %v", got)
	}
	if s[0] != 1 {
		t.Fatal("input mutated")
	}
}

func TestMovingAverageCircularMatchesConvolution(t *testing.T) {
	// The circular moving average must equal Conv(s, mask) exactly
	// (Equation 11 + convolution-multiplication), for every window size.
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 5, 16, 33, 128} {
		s := make([]float64, n)
		for i := range s {
			s[i] = r.NormFloat64() * 10
		}
		for _, l := range []int{1, 2, 3, n} {
			if l > n {
				continue
			}
			got := MovingAverageCircular(s, l)
			want := dft.ConvolveReal(s, MovingAverageMask(n, l))
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Fatalf("n=%d l=%d i=%d: %v != conv %v", n, l, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMovingAverageCircularWindowOne(t *testing.T) {
	s := []float64{3, 1, 4}
	got := MovingAverageCircular(s, 1)
	for i := range s {
		if got[i] != s[i] {
			t.Fatalf("l=1 moving average should be identity, got %v", got)
		}
	}
}

func TestMovingAverageCircularFullWindow(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	got := MovingAverageCircular(s, 4)
	for _, v := range got {
		if math.Abs(v-2.5) > 1e-12 {
			t.Fatalf("full-window average should be the mean everywhere, got %v", got)
		}
	}
}

func TestMovingAveragePanics(t *testing.T) {
	for _, f := range []func(){
		func() { MovingAverageCircular([]float64{1}, 0) },
		func() { MovingAverageCircular([]float64{1}, 2) },
		func() { MovingAverageSliding([]float64{1}, 0) },
		func() { MovingAverageSliding([]float64{1, 2}, 3) },
		func() { MovingAverageMask(3, 0) },
		func() { MovingAverageMask(3, 4) },
		func() { WeightedMovingAverageCircular([]float64{1}, nil) },
		func() { WeightedMovingAverageCircular([]float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid window")
				}
			}()
			f()
		}()
	}
}

func TestMovingAverageSliding(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	got := MovingAverageSliding(s, 3)
	want := []float64{2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("sliding MA = %v, want %v", got, want)
		}
	}
}

func TestSlidingVsCircularAgreeAwayFromSeam(t *testing.T) {
	// "when the length of the window is small enough compared to the length
	// of the sequence ... both averages are almost the same" — and away
	// from the wrap-around region they are *identical* up to alignment.
	r := rand.New(rand.NewSource(3))
	n, l := 64, 5
	s := make([]float64, n)
	for i := range s {
		s[i] = r.NormFloat64()
	}
	circ := MovingAverageCircular(s, l) // circ[i] = mean(s[i-l+1..i]) mod n
	slid := MovingAverageSliding(s, l)  // slid[j] = mean(s[j..j+l-1])
	for j := 0; j+l-1 < n; j++ {
		if math.Abs(circ[j+l-1]-slid[j]) > 1e-9 {
			t.Fatalf("alignment mismatch at %d: %v vs %v", j, circ[j+l-1], slid[j])
		}
	}
}

func TestWeightedMovingAverageEqualWeightsMatchesPlain(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	s := make([]float64, 40)
	for i := range s {
		s[i] = r.NormFloat64()
	}
	w := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	got := WeightedMovingAverageCircular(s, w)
	want := MovingAverageCircular(s, 3)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("weighted(equal) != plain at %d", i)
		}
	}
}

func TestWeightedMovingAverageTrendWeights(t *testing.T) {
	// Heavier weight on the most recent day: out_i leans toward s_i.
	s := []float64{0, 0, 0, 10}
	got := WeightedMovingAverageCircular(s, []float64{0.7, 0.2, 0.1})
	if math.Abs(got[3]-7) > 1e-12 {
		t.Fatalf("weighted MA at last day = %v, want 7", got[3])
	}
}

func TestPaperExample11MovingAverageDistance(t *testing.T) {
	// Example 1.1: D(s1, s2) = 11.92 raw; after the 3-day moving average
	// the distance drops to 0.47 (paper, 2 decimals).
	if d := EuclideanDistance(ex11s1, ex11s2); math.Abs(d-11.92) > 0.01 {
		t.Fatalf("raw distance = %v, want 11.92", d)
	}
	m1 := MovingAverageCircular(ex11s1, 3)
	m2 := MovingAverageCircular(ex11s2, 3)
	d := EuclideanDistance(m1, m2)
	if math.Abs(d-0.47) > 0.05 {
		t.Fatalf("3-day MA distance = %v, paper reports 0.47", d)
	}
}

func TestWarp(t *testing.T) {
	got := Warp([]float64{1, 2}, 3)
	want := []float64{1, 1, 1, 2, 2, 2}
	if len(got) != len(want) {
		t.Fatalf("Warp len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Warp = %v, want %v", got, want)
		}
	}
	if got := Warp([]float64{5}, 1); len(got) != 1 || got[0] != 5 {
		t.Fatalf("Warp m=1 should be identity, got %v", got)
	}
}

func TestWarpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Warp with m=0 did not panic")
		}
	}()
	Warp([]float64{1}, 0)
}

func TestPaperExample12Warp(t *testing.T) {
	// Example 1.2 (Figure 2): warping p by 2 yields s exactly.
	s := []float64{20, 20, 21, 21, 20, 20, 23, 23}
	p := []float64{20, 21, 20, 23}
	w := Warp(p, 2)
	if EuclideanDistance(w, s) != 0 {
		t.Fatalf("Warp(p,2) = %v, want %v", w, s)
	}
	// And no length-4 subsequence of s comes within 1.41 of p.
	if d := MinSubsequenceDistance(s, p); d <= 1.41 {
		t.Fatalf("min subsequence distance = %v, paper says > 1.41", d)
	}
}

func TestDistances(t *testing.T) {
	x := []float64{0, 0}
	y := []float64{3, 4}
	if d := EuclideanDistance(x, y); d != 5 {
		t.Fatalf("Euclidean = %v", d)
	}
	if d := CityBlockDistance(x, y); d != 7 {
		t.Fatalf("CityBlock = %v", d)
	}
}

func TestDistancePanics(t *testing.T) {
	for _, f := range []func(){
		func() { EuclideanDistance([]float64{1}, []float64{1, 2}) },
		func() { CityBlockDistance([]float64{1}, []float64{1, 2}) },
		func() { EuclideanWithin([]float64{1}, []float64{1, 2}, 1) },
		func() { MinSubsequenceDistance([]float64{1}, []float64{1, 2}) },
		func() { MinSubsequenceDistance([]float64{1}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestEuclideanWithin(t *testing.T) {
	x := []float64{0, 0, 0, 0}
	y := []float64{1, 1, 1, 1}
	within, terms := EuclideanWithin(x, y, 2)
	if !within || terms != 4 {
		t.Fatalf("within=%v terms=%d, want true/4", within, terms)
	}
	within, terms = EuclideanWithin(x, y, 1.5)
	if within {
		t.Fatal("distance 2 should not be within 1.5")
	}
	if terms >= 4 {
		t.Fatalf("early abandon should stop before the end, terms=%d", terms)
	}
}

func TestEuclideanWithinAgreesWithDistance(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}
	f := func(a, b [8]float64, rawEps float64) bool {
		eps := math.Abs(math.Mod(rawEps, 100))
		x, y := a[:], b[:]
		for i := range x {
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
				x[i] = 0
			}
			if math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
				y[i] = 0
			}
			x[i] = math.Mod(x[i], 1000)
			y[i] = math.Mod(y[i], 1000)
		}
		within, _ := EuclideanWithin(x, y, eps)
		return within == (EuclideanDistance(x, y) <= eps)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMinSubsequenceDistanceExact(t *testing.T) {
	s := []float64{0, 0, 5, 0, 0}
	q := []float64{5, 0}
	if d := MinSubsequenceDistance(s, q); d != 0 {
		t.Fatalf("exact subsequence should give 0, got %v", d)
	}
	if d := MinSubsequenceDistance(s, []float64{9, 9, 9, 9, 9}); d == 0 {
		t.Fatal("distance should be positive")
	}
}

func TestClone(t *testing.T) {
	s := []float64{1, 2}
	c := Clone(s)
	c[0] = 9
	if s[0] != 1 {
		t.Fatal("Clone did not copy")
	}
}

func TestMovingAverageReducesVolatilityProperty(t *testing.T) {
	// Smoothing cannot increase energy around the mean: std(MA(s)) <= std(s).
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 40; trial++ {
		n := 16 + r.Intn(100)
		s := make([]float64, n)
		for i := range s {
			s[i] = r.NormFloat64() * 5
		}
		l := 2 + r.Intn(10)
		if sd, sm := Std(s), Std(MovingAverageCircular(s, l)); sm > sd+1e-9 {
			t.Fatalf("moving average increased std: %v -> %v (n=%d l=%d)", sd, sm, n, l)
		}
	}
}

func TestBestSubsequenceMatch(t *testing.T) {
	s := []float64{0, 0, 5, 6, 0, 0}
	off, d := BestSubsequenceMatch(s, []float64{5, 6})
	if off != 2 || d != 0 {
		t.Fatalf("BestSubsequenceMatch = %d, %v", off, d)
	}
	off, d = BestSubsequenceMatch(s, []float64{4, 5})
	if off != 2 || math.Abs(d-math.Sqrt2) > 1e-12 {
		t.Fatalf("approximate match = %d, %v", off, d)
	}
	// Agreement with MinSubsequenceDistance on random data.
	r := rand.New(rand.NewSource(50))
	for trial := 0; trial < 30; trial++ {
		n := 10 + r.Intn(50)
		m := 1 + r.Intn(n)
		x := make([]float64, n)
		q := make([]float64, m)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		for i := range q {
			q[i] = r.NormFloat64()
		}
		_, d := BestSubsequenceMatch(x, q)
		if want := MinSubsequenceDistance(x, q); math.Abs(d-want) > 1e-12 {
			t.Fatalf("BestSubsequenceMatch dist %v != MinSubsequenceDistance %v", d, want)
		}
	}
}

func TestBestSubsequenceMatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized query did not panic")
		}
	}()
	BestSubsequenceMatch([]float64{1}, []float64{1, 2})
}
