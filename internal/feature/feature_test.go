package feature

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dft"
	"repro/internal/geom"
	"repro/internal/series"
	"repro/internal/transform"
)

func randomWalk(r *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	v := 20 + r.Float64()*79
	for i := range s {
		v += r.Float64()*8 - 4
		s[i] = v
	}
	return s
}

func TestSchemaValidate(t *testing.T) {
	if err := (Schema{Space: Polar, K: 0}).Validate(); err == nil {
		t.Error("K=0 should fail")
	}
	if err := (Schema{Space: Space(9), K: 1}).Validate(); err == nil {
		t.Error("unknown space should fail")
	}
	if err := DefaultSchema.Validate(); err != nil {
		t.Errorf("default schema invalid: %v", err)
	}
}

func TestSchemaDims(t *testing.T) {
	tests := []struct {
		sc   Schema
		dims int
		skip int
	}{
		{Schema{Space: Polar, K: 2, Moments: true}, 6, 2},
		{Schema{Space: Rect, K: 3, Moments: false}, 6, 0},
		{Schema{Space: Polar, K: 1, Moments: true}, 4, 2},
	}
	for _, tc := range tests {
		if got := tc.sc.Dims(); got != tc.dims {
			t.Errorf("%+v: Dims = %d, want %d", tc.sc, got, tc.dims)
		}
		if got := tc.sc.Skip(); got != tc.skip {
			t.Errorf("%+v: Skip = %d, want %d", tc.sc, got, tc.skip)
		}
	}
}

func TestAngularFlags(t *testing.T) {
	sc := Schema{Space: Polar, K: 2, Moments: true}
	flags := sc.Angular()
	want := []bool{false, false, false, true, false, true}
	for i := range want {
		if flags[i] != want[i] {
			t.Fatalf("Angular = %v, want %v", flags, want)
		}
	}
	if (Schema{Space: Rect, K: 2, Moments: true}).Angular() != nil {
		t.Fatal("rect space should have nil angular flags")
	}
}

func TestExtractLayout(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	s := randomWalk(r, 128)
	for _, sc := range []Schema{
		{Space: Polar, K: 2, Moments: true},
		{Space: Rect, K: 3, Moments: false},
	} {
		p, err := sc.Extract(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(p) != sc.Dims() {
			t.Fatalf("point has %d dims, want %d", len(p), sc.Dims())
		}
		if sc.Moments {
			if math.Abs(p[0]-series.Mean(s)) > 1e-9 || math.Abs(p[1]-series.Std(s)) > 1e-9 {
				t.Fatalf("moments wrong: %v", p[:2])
			}
		}
		coeffs := slowCoeffs(s, sc.K)
		got := sc.Coeffs(p)
		for i := range coeffs {
			if cmplx.Abs(got[i]-coeffs[i]) > 1e-9 {
				t.Fatalf("space %v coeff %d: %v != %v", sc.Space, i, got[i], coeffs[i])
			}
		}
	}
}

func TestExtractErrors(t *testing.T) {
	if _, err := (Schema{Space: Polar, K: 0}).Extract([]float64{1, 2, 3}); err == nil {
		t.Error("invalid schema should error")
	}
	if _, err := DefaultSchema.Extract([]float64{1, 2}); err == nil {
		t.Error("too-short series should error")
	}
}

// slowCoeffs is the reference for a point's coefficient dimensions: X_1 …
// X_k of the normal form's spectrum by the O(n²) definition.
func slowCoeffs(s []float64, k int) []complex128 {
	return dft.Slow(dft.ToComplex(series.NormalForm(s)))[1 : k+1]
}

// TestDeriveDropsZeroth: the point holds X_1 … X_K of the half Derive
// returns, bit for bit, and the half is the normal form's spectrum up to
// its middle — including schemas whose K reaches past the middle of a short
// series, where the point takes the mirrored coefficients.
func TestDeriveDropsZeroth(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var scr Scratch
	for _, tc := range []struct {
		n  int
		sc Schema
	}{
		{64, Schema{Space: Rect, K: 3}},
		{64, Schema{Space: Polar, K: 2, Moments: true}},
		{63, Schema{Space: Rect, K: 3, Moments: true}},
		{4, Schema{Space: Rect, K: 3}},
		{5, Schema{Space: Rect, K: 4}},
	} {
		s := randomWalk(r, tc.n)
		p, half, err := tc.sc.Derive(s, &scr)
		if err != nil {
			t.Fatal(err)
		}
		if len(half) != tc.n/2+1 {
			t.Fatalf("n=%d: half has %d coefficients", tc.n, len(half))
		}
		full := dft.Slow(dft.ToComplex(series.NormalForm(s)))
		for f, v := range half {
			if cmplx.Abs(v-full[f]) > 1e-9 {
				t.Fatalf("n=%d: X_%d = %v, want %v", tc.n, f, v, full[f])
			}
		}
		got := tc.sc.Coeffs(p)
		for i := 0; i < tc.sc.K; i++ {
			if cmplx.Abs(got[i]-full[i+1]) > 1e-9 {
				t.Fatalf("n=%d: coefficient %d should be X_%d: %v vs %v", tc.n, i, i+1, got[i], full[i+1])
			}
		}
		if tc.n >= 2*tc.sc.K {
			if want := tc.sc.Point(series.Mean(s), series.Std(s), half[1:tc.sc.K+1]); !slices.Equal(p, want) {
				t.Fatalf("n=%d: point %v is not Point of the half's X_1..X_K %v", tc.n, p, want)
			}
		}
		if q, _ := tc.sc.Extract(s); !slices.Equal(p, q) {
			t.Fatalf("n=%d: Extract %v and Derive %v disagree", tc.n, q, p)
		}
	}
}

// TestDeriveRejectsShortSeries: a series without K+1 values has no K
// coefficients past X_0.
func TestDeriveRejectsShortSeries(t *testing.T) {
	if _, _, err := (Schema{Space: Rect, K: 3}).Derive([]float64{1, 2}, nil); err == nil {
		t.Fatal("short series derived")
	}
	if _, _, err := (Schema{Space: Rect, K: 0}).Derive([]float64{1, 2, 3}, nil); err == nil {
		t.Fatal("invalid schema derived")
	}
}

func TestPointPanicsOnWrongK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong coefficient count did not panic")
		}
	}()
	DefaultSchema.Point(0, 1, []complex128{1})
}

func TestCoeffsPanicsOnWrongDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong point dims did not panic")
		}
	}()
	DefaultSchema.Coeffs(geom.Point{1, 2})
}

func TestCoeffDistSqAcrossSpaces(t *testing.T) {
	// The complex-plane coefficient distance must be identical no matter
	// which decomposition stores the point.
	r := rand.New(rand.NewSource(3))
	rectSc := Schema{Space: Rect, K: 2, Moments: true}
	polSc := Schema{Space: Polar, K: 2, Moments: true}
	qc := make([]complex128, 2)
	for trial := 0; trial < 30; trial++ {
		c1 := []complex128{complex(r.NormFloat64(), r.NormFloat64()), complex(r.NormFloat64(), r.NormFloat64())}
		c2 := []complex128{complex(r.NormFloat64(), r.NormFloat64()), complex(r.NormFloat64(), r.NormFloat64())}
		rectSc.CoeffsInto(rectSc.Point(3, 4, c2), qc)
		dr := rectSc.CoeffDistSqFlat(rectSc.Point(1, 2, c1), nil, qc)
		polSc.CoeffsInto(polSc.Point(3, 4, c2), qc)
		dp := polSc.CoeffDistSqFlat(cartesian(polSc, polSc.Point(1, 2, c1)), nil, qc)
		if math.Abs(dr-dp) > 1e-9*(1+dr) {
			t.Fatalf("distances differ across spaces: %v vs %v", dr, dp)
		}
		// Moments must not contribute.
		rectSc.CoeffsInto(rectSc.Point(3, 4, c2), qc)
		if d := rectSc.CoeffDistSqFlat(rectSc.Point(100, 200, c2), nil, qc); d != 0 {
			t.Fatalf("moment dims leaked into distance: %v", d)
		}
	}
}

func TestSearchRectContainsEpsBall(t *testing.T) {
	// The geometric half of Lemma 1: any series within eps of the query
	// (full-spectrum distance on normal forms) must land inside the search
	// rectangle in both spaces.
	r := rand.New(rand.NewSource(4))
	rectSc := Schema{Space: Rect, K: 2, Moments: true}
	polSc := Schema{Space: Polar, K: 2, Moments: true}
	n := 64
	for trial := 0; trial < 40; trial++ {
		q := randomWalk(r, n)
		x := make([]float64, n)
		copy(x, q)
		// Perturb to a controlled normal-form distance.
		for i := range x {
			x[i] += r.NormFloat64() * 0.3
		}
		qn, xn := series.NormalForm(q), series.NormalForm(x)
		d := series.EuclideanDistance(qn, xn)
		eps := d * (1 + r.Float64()) // any eps >= d must admit x
		qr, _ := rectSc.Extract(q)
		xr, _ := rectSc.Extract(x)
		if rect := rectSc.SearchRect(qr, eps, MomentBounds{}); !geom.ContainsPointMixed(rect, xr, nil) {
			t.Fatalf("trial %d: S_rect search rectangle missed a true answer (d=%g eps=%g)", trial, d, eps)
		}
		qp, _ := polSc.Extract(q)
		xp, _ := polSc.Extract(x)
		rect := polSc.SearchRect(qp, eps, MomentBounds{})
		if !geom.ContainsPointMixed(rect, xp, polSc.Angular()) {
			t.Fatalf("trial %d: S_pol search rectangle missed a true answer (d=%g eps=%g)", trial, d, eps)
		}
	}
}

func TestSearchRectPolarFullCircle(t *testing.T) {
	sc := Schema{Space: Polar, K: 1, Moments: false}
	q := sc.Point(0, 0, []complex128{complex(0.5, 0)}) // magnitude 0.5
	rect := sc.SearchRect(q, 1.0, MomentBounds{})      // eps > magnitude
	if w := rect.Hi[1] - rect.Lo[1]; w < 2*math.Pi-1e-9 {
		t.Fatalf("angle interval width %v, want full circle", w)
	}
	if rect.Lo[0] != 0 {
		t.Fatalf("magnitude lower bound %v, want clamped to 0", rect.Lo[0])
	}
}

func TestSearchRectMomentBounds(t *testing.T) {
	sc := DefaultSchema
	q := sc.Point(10, 2, []complex128{1, 1i})
	mb := MomentBounds{MeanLo: 5, MeanHi: 15, StdLo: 1, StdHi: 3}
	rect := sc.SearchRect(q, 0.5, mb)
	if rect.Lo[0] != 5 || rect.Hi[0] != 15 || rect.Lo[1] != 1 || rect.Hi[1] != 3 {
		t.Fatalf("moment bounds not applied: %v", rect)
	}
	open := sc.SearchRect(q, 0.5, MomentBounds{})
	if open.Lo[0] != -math.MaxFloat64 || open.Hi[1] != math.MaxFloat64 {
		t.Fatalf("default moment bounds should be unbounded: %v", open)
	}
}

func TestSearchRectPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong dims did not panic")
		}
	}()
	DefaultSchema.SearchRect(geom.Point{1}, 1, MomentBounds{})
}

func TestMapMatchesCoefficientTransformation(t *testing.T) {
	// Applying the schema's affine map to an extracted point must agree
	// with transforming the normal-form coefficients directly (a_f * X_f
	// for the polar-safe moving average; a_f*X_f + b_f for rect-safe
	// shifts), modulo the layout decomposition.
	r := rand.New(rand.NewSource(5))
	n := 128
	s := randomWalk(r, n)

	polSc := Schema{Space: Polar, K: 2, Moments: true}
	tr := transform.MovingAverage(n, 20)
	m, err := polSc.Map(tr)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := polSc.Extract(s)
	got := m.ApplyPoint(p)
	coeffs := slowCoeffs(s, polSc.K)
	for i := 0; i < polSc.K; i++ {
		want := tr.A[i+1] * coeffs[i]
		if math.Abs(got[2+2*i]-cmplx.Abs(want)) > 1e-9 {
			t.Fatalf("magnitude %d: %v != %v", i, got[2+2*i], cmplx.Abs(want))
		}
		wantAngle := geom.NormalizeAngle(cmplx.Phase(want))
		if math.Abs(geom.NormalizeAngle(got[3+2*i]-wantAngle)) > 1e-9 {
			t.Fatalf("angle %d: %v != %v", i, got[3+2*i], wantAngle)
		}
	}
	// Moments pass through.
	if got[0] != p[0] || got[1] != p[1] {
		t.Fatal("moments should pass through the map")
	}

	rectSc := Schema{Space: Rect, K: 2, Moments: true}
	sh := transform.Shift(n, 3)
	mr, err := rectSc.Map(sh)
	if err != nil {
		t.Fatal(err)
	}
	pr, _ := rectSc.Extract(s)
	gotR := mr.ApplyPoint(pr)
	for i := 0; i < rectSc.K; i++ {
		want := sh.A[i+1]*coeffs[i] + sh.B[i+1]
		if math.Abs(gotR[2+2*i]-real(want)) > 1e-9 || math.Abs(gotR[3+2*i]-imag(want)) > 1e-9 {
			t.Fatalf("rect coeff %d mismatch", i)
		}
	}
}

func TestMapErrors(t *testing.T) {
	if _, err := DefaultSchema.Map(transform.Identity(2)); err == nil {
		t.Error("too-short transformation should error")
	}
	// mavg is unsafe in S_rect.
	rectSc := Schema{Space: Rect, K: 2, Moments: true}
	if _, err := rectSc.Map(transform.MovingAverage(64, 5)); err == nil {
		t.Error("complex stretch must be rejected by rect schema")
	}
	// A mean shift translates only X_0, which the normal-form layout drops,
	// so it passes the polar schema (the paper's "we could still have
	// simple shifts"). A translation on a *retained* coefficient must be
	// rejected.
	if _, err := DefaultSchema.Map(transform.Shift(64, 2)); err != nil {
		t.Errorf("mean shift should be accepted by the polar schema: %v", err)
	}
	b := make([]complex128, 64)
	b[1] = 2 + 1i
	unsafe := transform.Identity(64)
	unsafe.B = b
	if _, err := DefaultSchema.Map(unsafe); err == nil {
		t.Error("translation on a retained coefficient must be rejected by polar schema")
	}
}

func TestLowerBoundDistSqRect(t *testing.T) {
	sc := Schema{Space: Rect, K: 1, Moments: true}
	q := sc.Point(0, 0, []complex128{complex(5, 5)})
	r := geom.NewRect(geom.Point{-100, -100, 0, 0}, geom.Point{100, 100, 1, 1})
	// Nearest coefficient corner is (1, 1): distance^2 = 16+16.
	if d := sc.LowerBoundDistSqFlat(q, r.Lo, r.Hi); math.Abs(d-32) > 1e-9 {
		t.Fatalf("lower bound = %v, want 32", d)
	}
}

func TestLowerBoundIsLowerBoundProperty(t *testing.T) {
	// For random rectangles and random points inside them, the lower bound
	// from the query must not exceed the exact coefficient distance.
	r := rand.New(rand.NewSource(6))
	for _, sc := range []Schema{
		{Space: Rect, K: 2, Moments: true},
		{Space: Polar, K: 2, Moments: true},
	} {
		for trial := 0; trial < 60; trial++ {
			qc := []complex128{complex(r.NormFloat64()*3, r.NormFloat64()*3), complex(r.NormFloat64()*3, r.NormFloat64()*3)}
			q := sc.Point(r.NormFloat64(), r.Float64(), qc)
			// Random inner point, then a rectangle around it.
			pc := []complex128{complex(r.NormFloat64()*3, r.NormFloat64()*3), complex(r.NormFloat64()*3, r.NormFloat64()*3)}
			p := sc.Point(r.NormFloat64(), r.Float64(), pc)
			lo := p.Clone()
			hi := p.Clone()
			for i := range lo {
				lo[i] -= r.Float64()
				hi[i] += r.Float64()
			}
			bound := sc.LowerBoundDistSqFlat(q, lo, hi)
			var exact float64
			for i := range qc {
				exact += real(qc[i]-pc[i])*real(qc[i]-pc[i]) + imag(qc[i]-pc[i])*imag(qc[i]-pc[i])
			}
			if bound > exact+1e-9 {
				t.Fatalf("space %v trial %d: bound %v > exact %v", sc.Space, trial, bound, exact)
			}
		}
	}
}

func TestMomentsOf(t *testing.T) {
	p := DefaultSchema.Point(7, 3, []complex128{1, 2})
	mean, std := DefaultSchema.MomentsOf(p)
	if mean != 7 || std != 3 {
		t.Fatalf("MomentsOf = %v, %v", mean, std)
	}
	noM := Schema{Space: Rect, K: 1, Moments: false}
	mean, std = noM.MomentsOf(noM.Point(0, 0, []complex128{1}))
	if mean != 0 || std != 0 {
		t.Fatal("schema without moments should report zeros")
	}
}

func TestSpaceString(t *testing.T) {
	if Rect.String() != "S_rect" || Polar.String() != "S_pol" {
		t.Fatal("space names wrong")
	}
	if Space(9).String() == "" {
		t.Fatal("unknown space should still stringify")
	}
}
