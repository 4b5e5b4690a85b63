package dft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func approxEq(a, b float64, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func complexApproxEq(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

func vecApproxEq(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !complexApproxEq(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

func randomComplexVec(r *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(r.NormFloat64()*10, r.NormFloat64()*10)
	}
	return out
}

func randomRealVec(r *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = r.NormFloat64() * 10
	}
	return out
}

func TestTransformEmpty(t *testing.T) {
	if got := Transform(nil); got != nil {
		t.Fatalf("Transform(nil) = %v, want nil", got)
	}
	if got := Inverse(nil); got != nil {
		t.Fatalf("Inverse(nil) = %v, want nil", got)
	}
}

func TestTransformSingleton(t *testing.T) {
	x := []complex128{3 + 4i}
	X := Transform(x)
	if !complexApproxEq(X[0], 3+4i, eps) {
		t.Fatalf("DFT of singleton = %v, want %v", X[0], x[0])
	}
}

func TestTransformConstantSignal(t *testing.T) {
	// DFT of a constant c (length n) is (sqrt(n)*c, 0, 0, ...).
	const n = 8
	x := make([]complex128, n)
	for i := range x {
		x[i] = 5
	}
	X := Transform(x)
	want := complex(5*math.Sqrt(n), 0)
	if !complexApproxEq(X[0], want, eps) {
		t.Errorf("X[0] = %v, want %v", X[0], want)
	}
	for f := 1; f < n; f++ {
		if !complexApproxEq(X[f], 0, eps) {
			t.Errorf("X[%d] = %v, want 0", f, X[f])
		}
	}
}

func TestTransformPureTone(t *testing.T) {
	// x_t = e^{j 2 pi t f0 / n} has spectrum sqrt(n) at bin f0, 0 elsewhere.
	const n, f0 = 16, 3
	x := make([]complex128, n)
	for t0 := 0; t0 < n; t0++ {
		x[t0] = cmplx.Exp(complex(0, 2*math.Pi*float64(t0)*f0/n))
	}
	X := Transform(x)
	for f := 0; f < n; f++ {
		want := complex128(0)
		if f == f0 {
			want = complex(math.Sqrt(n), 0)
		}
		if !complexApproxEq(X[f], want, 1e-8) {
			t.Errorf("X[%d] = %v, want %v", f, X[f], want)
		}
	}
}

func TestTransformMatchesSlowOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 15, 16, 31, 32, 33, 64, 100, 128, 255} {
		x := randomComplexVec(r, n)
		fast := Transform(x)
		slow := Slow(x)
		if !vecApproxEq(fast, slow, 1e-7*float64(n)) {
			t.Errorf("n=%d: FFT does not match slow DFT oracle", n)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3, 8, 17, 64, 100, 128, 1000, 1024} {
		x := randomComplexVec(r, n)
		got := Inverse(Transform(x))
		if !vecApproxEq(got, x, 1e-8*float64(n)) {
			t.Errorf("n=%d: Inverse(Transform(x)) != x", n)
		}
	}
}

func TestTransformDoesNotMutateInput(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	orig := append([]complex128(nil), x...)
	Transform(x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatalf("Transform mutated input at %d: %v != %v", i, x[i], orig[i])
		}
	}
	Inverse(x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatalf("Inverse mutated input at %d: %v != %v", i, x[i], orig[i])
		}
	}
}

func TestParsevalProperty(t *testing.T) {
	// Paper Equation 7: E(x) == E(X) under the unitary DFT.
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(3))}
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 512 {
			raw = raw[:512]
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				raw[i] = math.Mod(v, 1000)
				if math.IsNaN(raw[i]) {
					raw[i] = 0
				}
			}
		}
		x := ToComplex(raw)
		ex := Energy(x)
		eX := Energy(Transform(x))
		return approxEq(ex, eX, 1e-6*(1+ex))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDistancePreservationProperty(t *testing.T) {
	// Paper Equation 8: D(x, y) == D(X, Y).
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(300)
		x := randomComplexVec(r, n)
		y := randomComplexVec(r, n)
		dt := Distance(x, y)
		df := Distance(Transform(x), Transform(y))
		if !approxEq(dt, df, 1e-6*(1+dt)) {
			t.Fatalf("n=%d: time-domain distance %g != frequency-domain distance %g", n, dt, df)
		}
	}
}

func TestLinearityProperty(t *testing.T) {
	// Paper Equation 5: DFT(a*x + b*y) = a*X + b*Y.
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 1 + r.Intn(128)
		x := randomComplexVec(r, n)
		y := randomComplexVec(r, n)
		a := complex(r.NormFloat64(), r.NormFloat64())
		b := complex(r.NormFloat64(), r.NormFloat64())
		lhs := make([]complex128, n)
		for i := range lhs {
			lhs[i] = a*x[i] + b*y[i]
		}
		LHS := Transform(lhs)
		X := Transform(x)
		Y := Transform(y)
		for i := range LHS {
			want := a*X[i] + b*Y[i]
			if !complexApproxEq(LHS[i], want, 1e-6*(1+cmplx.Abs(want))) {
				t.Fatalf("linearity violated at n=%d i=%d", n, i)
			}
		}
	}
}

// checkHalf compares HalfInto with the definition: within 1e-12·√n of
// every coefficient of Slow's X_0 … X_{⌊n/2⌋}, with Im X_0 exactly 0 and,
// for even n, Im X_{n/2} exactly 0.
func checkHalf(t *testing.T, x []float64) {
	t.Helper()
	n := len(x)
	got := HalfInto(nil, x)
	want := Slow(ToComplex(x))
	if len(got) != n/2+1 {
		t.Fatalf("n=%d: %d coefficients, want %d", n, len(got), n/2+1)
	}
	scale := 1.0
	for _, v := range x {
		scale = math.Max(scale, math.Abs(v))
	}
	tol := 1e-12 * math.Sqrt(float64(n)) * scale
	for f, v := range got {
		if !complexApproxEq(v, want[f], tol) {
			t.Errorf("n=%d f=%d: HalfInto=%v Slow=%v (|diff| %g > %g)", n, f, v, want[f], cmplx.Abs(v-want[f]), tol)
		}
	}
	if imag(got[0]) != 0 {
		t.Errorf("n=%d: Im X_0 = %g, want exactly 0", n, imag(got[0]))
	}
	if n%2 == 0 && imag(got[n/2]) != 0 {
		t.Errorf("n=%d: Im X_{n/2} = %g, want exactly 0", n, imag(got[n/2]))
	}
}

// TestHalfAgainstSlow holds the real-input transform to the O(n²)
// definition at odd lengths (full complex Bluestein), at even lengths whose
// half is a power of two (packed radix-2) and at even lengths whose half is
// not (packed Bluestein).
func TestHalfAgainstSlow(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 8, 12, 63, 64, 100, 256, 257} {
		checkHalf(t, randomRealVec(r, n))
	}
}

// TestTransformRealMatchesSlow: the full spectrum of a real series is the
// half and its conjugate mirror, and agrees with the definition and with
// the complex transform.
func TestTransformRealMatchesSlow(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 3, 16, 128, 500} {
		x := randomRealVec(r, n)
		X := TransformReal(x)
		if !vecApproxEq(X, Slow(ToComplex(x)), 1e-9*float64(n)) {
			t.Errorf("n=%d: TransformReal does not match the slow DFT", n)
		}
		if !vecApproxEq(X, Transform(ToComplex(x)), 1e-9*float64(n)) {
			t.Errorf("n=%d: TransformReal does not match Transform", n)
		}
		for f := 1; f < n; f++ {
			if X[n-f] != cmplx.Conj(X[f]) {
				t.Fatalf("n=%d: X_%d is not the conjugate of X_%d", n, n-f, f)
			}
		}
	}
}

// TestHalfIntoReusesDst: a destination with the capacity is written in
// place: at a power-of-two length HalfInto allocates nothing.
func TestHalfIntoReusesDst(t *testing.T) {
	x := randomRealVec(rand.New(rand.NewSource(9)), 256)
	dst := make([]complex128, 0, 129)
	HalfInto(dst, x) // grow the twiddle table
	if allocs := testing.AllocsPerRun(50, func() { dst = HalfInto(dst, x) }); allocs != 0 {
		t.Errorf("HalfInto at n=256 with room in dst: %.1f allocs, want 0", allocs)
	}
	if got := HalfInto(nil, nil); len(got) != 0 {
		t.Errorf("HalfInto of nothing = %v", got)
	}
}

// FuzzHalf holds HalfInto to the definition on arbitrary series of up to
// 64 values.
func FuzzHalf(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(make([]byte, 63))
	f.Add([]byte{255, 0, 255, 0, 128})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		if len(raw) == 0 {
			return
		}
		x := make([]float64, len(raw))
		for i, b := range raw {
			x[i] = float64(int(b) - 128)
		}
		checkHalf(t, x)
	})
}

func TestConvolveMatchesSlowOracle(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 3, 8, 15, 16, 100, 128} {
		x := randomComplexVec(r, n)
		y := randomComplexVec(r, n)
		fast := Convolve(x, y)
		slow := ConvolveSlow(x, y)
		if !vecApproxEq(fast, slow, 1e-6*float64(n)) {
			t.Errorf("n=%d: FFT convolution does not match definition", n)
		}
	}
}

func TestConvolveEmpty(t *testing.T) {
	if got := Convolve(nil, nil); got != nil {
		t.Fatalf("Convolve(nil, nil) = %v, want nil", got)
	}
}

func TestConvolveLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Convolve with mismatched lengths did not panic")
		}
	}()
	Convolve([]complex128{1}, []complex128{1, 2})
}

func TestConvolutionMultiplicationProperty(t *testing.T) {
	// Paper Equation 6 under the unitary convention:
	// Transform(Conv(x, y)) = sqrt(n) * X .* Y, equivalently the spectrum
	// multiplier for a mask m is its unnormalized DFT (Spectrum).
	r := rand.New(rand.NewSource(10))
	for _, n := range []int{2, 8, 12, 64, 128} {
		x := randomRealVec(r, n)
		m := randomRealVec(r, n)
		conv := ConvolveReal(x, m)
		lhs := TransformReal(conv)
		X := TransformReal(x)
		A := Spectrum(m)
		for f := 0; f < n; f++ {
			want := A[f] * X[f]
			if !complexApproxEq(lhs[f], want, 1e-6*float64(n)*(1+cmplx.Abs(want))) {
				t.Fatalf("n=%d f=%d: DFT(conv)=%v, A*X=%v", n, f, lhs[f], want)
			}
		}
	}
}

func TestSpectrumOfDelta(t *testing.T) {
	// The unit impulse has a flat unnormalized spectrum of ones.
	m := []float64{1, 0, 0, 0}
	A := Spectrum(m)
	for f, v := range A {
		if !complexApproxEq(v, 1, eps) {
			t.Errorf("Spectrum(delta)[%d] = %v, want 1", f, v)
		}
	}
}

func TestSpectrumEmpty(t *testing.T) {
	if got := Spectrum(nil); got != nil {
		t.Fatalf("Spectrum(nil) = %v, want nil", got)
	}
}

func TestMultiply(t *testing.T) {
	a := []complex128{1 + 1i, 2}
	b := []complex128{3, 4i}
	got := Multiply(a, b)
	want := []complex128{3 + 3i, 8i}
	if !vecApproxEq(got, want, eps) {
		t.Fatalf("Multiply = %v, want %v", got, want)
	}
}

func TestMultiplyLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Multiply with mismatched lengths did not panic")
		}
	}()
	Multiply([]complex128{1}, []complex128{1, 2})
}

func TestEnergy(t *testing.T) {
	x := []complex128{3 + 4i, 1}
	if got := Energy(x); !approxEq(got, 26, eps) {
		t.Fatalf("Energy = %v, want 26", got)
	}
	if got := EnergyReal([]float64{3, 4}); !approxEq(got, 25, eps) {
		t.Fatalf("EnergyReal = %v, want 25", got)
	}
	if got := Energy(nil); got != 0 {
		t.Fatalf("Energy(nil) = %v, want 0", got)
	}
}

func TestDistance(t *testing.T) {
	x := []complex128{0, 0}
	y := []complex128{3, 4i}
	if got := Distance(x, y); !approxEq(got, 5, eps) {
		t.Fatalf("Distance = %v, want 5", got)
	}
	if got := DistanceReal([]float64{0, 0}, []float64{3, 4}); !approxEq(got, 5, eps) {
		t.Fatalf("DistanceReal = %v, want 5", got)
	}
}

func TestDistanceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Distance with mismatched lengths did not panic")
		}
	}()
	Distance([]complex128{1}, []complex128{1, 2})
}

func TestDistanceRealMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DistanceReal with mismatched lengths did not panic")
		}
	}()
	DistanceReal([]float64{1}, []float64{1, 2})
}

func TestPaperExample11Distance(t *testing.T) {
	// Example 1.1: D(s1, s2) = 11.92 (paper reports 2 decimal places).
	s1 := []float64{36, 38, 40, 38, 42, 38, 36, 36, 37, 38, 39, 38, 40, 38, 37}
	s2 := []float64{40, 37, 37, 42, 41, 35, 40, 35, 34, 42, 38, 35, 45, 36, 34}
	d := DistanceReal(s1, s2)
	if math.Abs(d-11.92) > 0.01 {
		t.Fatalf("Example 1.1 distance = %v, paper reports 11.92", d)
	}
}

func TestToComplexRoundTrip(t *testing.T) {
	x := []float64{1.5, -2, 0}
	got := RealParts(ToComplex(x))
	for i := range x {
		if got[i] != x[i] {
			t.Fatalf("round trip mismatch at %d: %v != %v", i, got[i], x[i])
		}
	}
}

func TestBluesteinLargePrime(t *testing.T) {
	// Exercise the chirp-z path at a prime length large enough to need
	// several padding doublings.
	r := rand.New(rand.NewSource(11))
	x := randomComplexVec(r, 1009)
	got := Inverse(Transform(x))
	if !vecApproxEq(got, x, 1e-6*1009) {
		t.Fatal("Bluestein round trip failed at n=1009")
	}
}

func BenchmarkTransformPow2(b *testing.B) {
	r := rand.New(rand.NewSource(12))
	x := randomComplexVec(r, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Transform(x)
	}
}

func BenchmarkTransformBluestein(b *testing.B) {
	r := rand.New(rand.NewSource(13))
	x := randomComplexVec(r, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Transform(x)
	}
}

func BenchmarkHalfInto256(b *testing.B) {
	x := randomRealVec(rand.New(rand.NewSource(14)), 256)
	dst := HalfInto(nil, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = HalfInto(dst, x)
	}
}
