package transform

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/dft"
	"repro/internal/geom"
	"repro/internal/series"
)

func randomSeries(r *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	v := 50.0
	for i := range s {
		v += r.Float64()*8 - 4
		s[i] = v
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, 0, "x"); err == nil {
		t.Error("empty vectors should fail")
	}
	if _, err := New([]complex128{1}, []complex128{0, 0}, 0, "x"); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := New([]complex128{1}, []complex128{0}, -1, "x"); err == nil {
		t.Error("negative cost should fail")
	}
	tr, err := New([]complex128{2}, []complex128{1}, 3, "x")
	if err != nil || tr.Cost != 3 || tr.Dims() != 1 {
		t.Fatalf("New = %v, %v", tr, err)
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	x := []complex128{1 + 2i, 3, -1i, 0.5}
	got := id.Apply(x)
	for i := range x {
		if got[i] != x[i] {
			t.Fatalf("identity changed input at %d", i)
		}
	}
	if !id.SafeRect() || !id.SafePolar() {
		t.Error("identity must be safe in both spaces")
	}
}

func TestApplyPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Apply with wrong length did not panic")
		}
	}()
	Identity(3).Apply([]complex128{1})
}

func TestApplyPrefix(t *testing.T) {
	tr := Scale(8, 2)
	got := tr.ApplyPrefix([]complex128{1, 2i})
	if got[0] != 2 || got[1] != 4i {
		t.Fatalf("ApplyPrefix = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ApplyPrefix longer than transformation did not panic")
		}
	}()
	tr.ApplyPrefix(make([]complex128, 9))
}

func TestMovingAverageApplyTimeMatchesDirect(t *testing.T) {
	// T_mavg applied in the frequency domain must reproduce the circular
	// moving average in the time domain (Section 3.2's derivation via the
	// convolution-multiplication property).
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{8, 15, 64, 128} {
		for _, l := range []int{1, 3, 20} {
			if l > n {
				continue
			}
			s := randomSeries(r, n)
			got := MovingAverage(n, l).ApplyTime(s)
			want := series.MovingAverageCircular(s, l)
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-7 {
					t.Fatalf("n=%d l=%d i=%d: %v != %v", n, l, i, got[i], want[i])
				}
			}
		}
	}
}

func TestWeightedMovingAverageApplyTime(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	n := 32
	s := randomSeries(r, n)
	w := []float64{0.5, 0.3, 0.2}
	got := WeightedMovingAverage(n, w).ApplyTime(s)
	want := series.WeightedMovingAverageCircular(s, w)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("i=%d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestWeightedMovingAveragePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized window did not panic")
		}
	}()
	WeightedMovingAverage(2, []float64{1, 1, 1})
}

func TestReverseApplyTime(t *testing.T) {
	s := []float64{1, -2, 3, 4}
	got := Reverse(4).ApplyTime(s)
	for i := range s {
		if math.Abs(got[i]+s[i]) > 1e-9 {
			t.Fatalf("reverse: got[%d]=%v, want %v", i, got[i], -s[i])
		}
	}
}

func TestShiftScaleApplyTime(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	s := randomSeries(r, 16)
	gotShift := Shift(16, 2.5).ApplyTime(s)
	wantShift := series.Shift(s, 2.5)
	gotScale := Scale(16, -1.5).ApplyTime(s)
	wantScale := series.Scale(s, -1.5)
	for i := range s {
		if math.Abs(gotShift[i]-wantShift[i]) > 1e-8 {
			t.Fatalf("shift mismatch at %d: %v vs %v", i, gotShift[i], wantShift[i])
		}
		if math.Abs(gotScale[i]-wantScale[i]) > 1e-8 {
			t.Fatalf("scale mismatch at %d: %v vs %v", i, gotScale[i], wantScale[i])
		}
	}
}

func TestApplyTimePanicsOnLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ApplyTime length mismatch did not panic")
		}
	}()
	Identity(4).ApplyTime([]float64{1, 2})
}

func TestWarpCoefficientRelation(t *testing.T) {
	// Appendix A, Equation 19: the f-th unitary coefficient of the warped
	// series equals a_f times the f-th coefficient of the original, for
	// every f < n.
	r := rand.New(rand.NewSource(4))
	for _, n := range []int{4, 8, 12} {
		for _, m := range []int{1, 2, 3, 5} {
			s := randomSeries(r, n)
			warped := series.Warp(s, m)
			S := dft.TransformReal(s)
			SW := dft.TransformReal(warped)
			a := Warp(n, m).A
			for f := 0; f < n; f++ {
				want := a[f] * S[f]
				if cmplx.Abs(SW[f]-want) > 1e-7*(1+cmplx.Abs(want)) {
					t.Fatalf("n=%d m=%d f=%d: warped coeff %v != a_f*S_f %v", n, m, f, SW[f], want)
				}
			}
		}
	}
}

func TestWarpIdentityFactor(t *testing.T) {
	w := Warp(6, 1)
	for f, a := range w.A {
		if cmplx.Abs(a-1) > 1e-12 {
			t.Fatalf("warp(1) coefficient %d = %v, want 1", f, a)
		}
	}
}

func TestWarpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("warp factor 0 did not panic")
		}
	}()
	Warp(4, 0)
}

func TestCompose(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n := 8
	t1 := MovingAverage(n, 3).WithCost(2)
	t2 := Reverse(n).WithCost(1.5)
	comp, err := t1.Compose(t2)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Cost != 3.5 {
		t.Fatalf("composed cost = %v, want 3.5", comp.Cost)
	}
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	got := comp.Apply(x)
	want := t2.Apply(t1.Apply(x))
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("compose mismatch at %d", i)
		}
	}
}

func TestComposeDimensionMismatch(t *testing.T) {
	if _, err := Identity(3).Compose(Identity(4)); err == nil {
		t.Fatal("compose with mismatched dims should fail")
	}
}

func TestSafetyClassification(t *testing.T) {
	n := 16
	tests := []struct {
		name      string
		tr        T
		safeRect  bool
		safePolar bool
	}{
		{"identity", Identity(n), true, true},
		{"scale", Scale(n, 2.5), true, true},
		{"reverse", Reverse(n), true, true},
		{"shift", Shift(n, 3), true, false},
		{"mavg", MovingAverage(n, 3), false, true},
		{"warp", Warp(n, 2), false, true},
	}
	for _, tc := range tests {
		if got := tc.tr.SafeRect(); got != tc.safeRect {
			t.Errorf("%s: SafeRect = %v, want %v", tc.name, got, tc.safeRect)
		}
		if got := tc.tr.SafePolar(); got != tc.safePolar {
			t.Errorf("%s: SafePolar = %v, want %v", tc.name, got, tc.safePolar)
		}
	}
}

func TestPaperTheorem2Counterexample(t *testing.T) {
	// Section 3 shows (a complex stretch breaks S_rect safety): rectangle
	// corners p = -5-5j, q = 5+5j, interior point r = -2+2j, stretch
	// s = 2-3j. After multiplication, r*s is outside the rectangle built on
	// p*s and q*s.
	s := complex(2, -3)
	p, q, rr := complex(-5, -5), complex(5, 5), complex(-2, 2)
	ps, qs, rs := p*s, q*s, rr*s
	rect := geom.NewRect(
		geom.Point{real(ps), imag(ps)},
		geom.Point{real(qs), imag(qs)},
	)
	if geom.ContainsPointMixed(rect, geom.Point{real(rs), imag(rs)}, nil) {
		t.Fatal("paper's counterexample should place r*s outside the transformed rectangle")
	}
	// And indeed a transformation with this stretch is flagged unsafe.
	tr, _ := New([]complex128{s}, []complex128{0}, 0, "cex")
	if tr.SafeRect() {
		t.Fatal("complex stretch must not be SafeRect")
	}
	if !tr.SafePolar() {
		t.Fatal("zero translation must be SafePolar")
	}
}

func TestRectMapTheorem2Property(t *testing.T) {
	// Safety (Definition 1): interior points stay interior, exterior stay
	// exterior, under the induced rectangular-space affine map.
	r := rand.New(rand.NewSource(6))
	const coeffs, skip = 3, 2
	for trial := 0; trial < 50; trial++ {
		a := make([]complex128, coeffs)
		b := make([]complex128, coeffs)
		for i := range a {
			// Real non-zero stretch, arbitrary complex translation.
			av := r.NormFloat64()*3 + 0.5
			if r.Intn(2) == 0 {
				av = -av
			}
			a[i] = complex(av, 0)
			b[i] = complex(r.NormFloat64()*5, r.NormFloat64()*5)
		}
		tr, err := New(a, b, 0, "rand")
		if err != nil {
			t.Fatal(err)
		}
		m, err := RectMap(tr, skip, coeffs)
		if err != nil {
			t.Fatal(err)
		}
		dims := skip + 2*coeffs
		lo := make(geom.Point, dims)
		hi := make(geom.Point, dims)
		for i := 0; i < dims; i++ {
			c := r.NormFloat64() * 10
			w := r.Float64()*4 + 0.5
			lo[i], hi[i] = c-w, c+w
		}
		rect := geom.Rect{Lo: lo, Hi: hi}
		trRect := m.ApplyRect(rect)
		for p := 0; p < 20; p++ {
			pnt := make(geom.Point, dims)
			for i := range pnt {
				pnt[i] = r.NormFloat64() * 15
			}
			inside := geom.ContainsPointMixed(rect, pnt, nil)
			mapped := m.ApplyPoint(pnt)
			if inside != geom.ContainsPointMixed(trRect, mapped, nil) {
				t.Fatalf("safety violated: inside=%v flipped after transformation", inside)
			}
		}
	}
}

func TestRectMapRejectsUnsafe(t *testing.T) {
	if _, err := RectMap(MovingAverage(16, 3), 2, 2); err == nil {
		t.Fatal("RectMap must reject complex stretch vectors")
	}
	if _, err := RectMap(Identity(2), 0, 5); err == nil {
		t.Fatal("RectMap must reject too-short transformations")
	}
}

func TestPolarMapRejectsUnsafe(t *testing.T) {
	if _, err := PolarMap(Shift(16, 1), 2, 2); err == nil {
		t.Fatal("PolarMap must reject non-zero translations")
	}
	if _, err := PolarMap(Identity(2), 0, 5); err == nil {
		t.Fatal("PolarMap must reject too-short transformations")
	}
}

func TestPolarMapAction(t *testing.T) {
	// A stretch of 2e^{i pi/2} doubles magnitudes and rotates phases by
	// pi/2; leading dims pass through.
	a := []complex128{cmplx.Rect(2, math.Pi/2)}
	tr, _ := New(a, []complex128{0}, 0, "rot")
	m, err := PolarMap(tr, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Point{7, 8, 3, math.Pi / 4} // mean, std, magnitude, angle
	got := m.ApplyPoint(p)
	if got[0] != 7 || got[1] != 8 {
		t.Fatalf("leading dims changed: %v", got)
	}
	if math.Abs(got[2]-6) > 1e-12 {
		t.Fatalf("magnitude = %v, want 6", got[2])
	}
	if math.Abs(got[3]-(math.Pi/4+math.Pi/2)) > 1e-12 {
		t.Fatalf("angle = %v, want 3pi/4", got[3])
	}
	if !m.Angular[3] || m.Angular[2] {
		t.Fatal("angular flags wrong")
	}
}

func TestPolarMapTheorem3Property(t *testing.T) {
	// Safety in S_pol with angular wrap-around: membership of transformed
	// points in transformed rectangles is preserved, tested with the
	// seam-aware containment predicate.
	r := rand.New(rand.NewSource(7))
	const coeffs, skip = 2, 2
	for trial := 0; trial < 50; trial++ {
		a := make([]complex128, coeffs)
		for i := range a {
			a[i] = cmplx.Rect(r.Float64()*3+0.1, r.Float64()*2*math.Pi-math.Pi)
		}
		tr, err := New(a, make([]complex128, coeffs), 0, "randpolar")
		if err != nil {
			t.Fatal(err)
		}
		m, err := PolarMap(tr, skip, coeffs)
		if err != nil {
			t.Fatal(err)
		}
		dims := skip + 2*coeffs
		lo := make(geom.Point, dims)
		hi := make(geom.Point, dims)
		for i := 0; i < dims; i++ {
			if i >= skip && (i-skip)%2 == 1 {
				c := r.Float64()*2*math.Pi - math.Pi
				w := r.Float64() * 1.5
				lo[i], hi[i] = c-w/2, c+w/2
			} else {
				c := r.Float64() * 10
				w := r.Float64()*3 + 0.1
				lo[i], hi[i] = c, c+w
			}
		}
		rect := geom.Rect{Lo: lo, Hi: hi}
		trRect := m.ApplyRect(rect)
		for p := 0; p < 20; p++ {
			pnt := make(geom.Point, dims)
			for i := range pnt {
				if i >= skip && (i-skip)%2 == 1 {
					pnt[i] = r.Float64()*2*math.Pi - math.Pi
				} else {
					pnt[i] = r.Float64() * 12
				}
			}
			inside := geom.ContainsPointMixed(rect, pnt, m.Angular)
			mapped := m.ApplyPoint(pnt)
			if inside != geom.ContainsPointMixed(trRect, mapped, m.Angular) {
				t.Fatalf("polar safety violated (inside=%v)", inside)
			}
		}
	}
}

func TestAffineIdentity(t *testing.T) {
	m := IdentityMap(3, nil)
	if !m.Identity() {
		t.Fatal("IdentityMap should report Identity")
	}
	m.C[1] = 2
	if m.Identity() {
		t.Fatal("modified map should not be identity")
	}
}

func TestAffinePanics(t *testing.T) {
	m := IdentityMap(2, nil)
	for _, f := range []func(){
		func() { m.ApplyPoint(geom.Point{1}) },
		func() { m.ApplyRect(geom.NewRect(geom.Point{0}, geom.Point{1})) },
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

func TestPolarMinDistInsideSector(t *testing.T) {
	// Query inside the sector: distance 0.
	q := geom.Point{2, 0} // magnitude 2, angle 0
	r := geom.NewRect(geom.Point{1, -0.5}, geom.Point{3, 0.5})
	if d := PolarCoeffMinDistSq(q, r.Lo, r.Hi, 0); d != 0 {
		t.Fatalf("inside sector: %v, want 0", d)
	}
	// A sector drawn across the +/- pi seam holds the angles on both sides
	// of it, and the moment dimensions below skip count for nothing.
	seam := geom.Rect{Lo: geom.Point{-50, -50, 1, math.Pi - 0.5}, Hi: geom.Point{-40, -40, 3, math.Pi + 0.5}}
	for _, angle := range []float64{math.Pi - 0.4, -math.Pi + 0.4, -math.Pi} {
		if d := PolarCoeffMinDistSq(geom.Point{7, 7, 2, angle}, seam.Lo, seam.Hi, 2); d != 0 {
			t.Fatalf("angle %v inside a sector across the seam: %v, want 0", angle, d)
		}
	}
}

func TestPolarMinDistRadial(t *testing.T) {
	q := geom.Point{5, 0}
	r := geom.NewRect(geom.Point{1, -0.5}, geom.Point{3, 0.5})
	if d := PolarCoeffMinDistSq(q, r.Lo, r.Hi, 0); math.Abs(d-4) > 1e-12 {
		t.Fatalf("radial distance = %v, want 4 (=(5-3)^2)", d)
	}
	// Beside the sector: the nearest point is on its edge ray at angle 0.5,
	// where the query (magnitude 3, a quarter turn on) projects to
	// 3*cos(pi/2 - 0.5) = 1.44 — inside the radius range — so the distance
	// is the height of the query above that ray.
	q = geom.Point{3, math.Pi / 2}
	want := 3 * math.Sin(math.Pi/2-0.5)
	if d := PolarCoeffMinDistSq(q, r.Lo, r.Hi, 0); math.Abs(d-want*want) > 1e-12 {
		t.Fatalf("distance to the edge ray = %v, want %v", d, want*want)
	}
}

func TestPolarMinDistLowerBoundProperty(t *testing.T) {
	// PolarCoeffMinDistSq must lower-bound the true complex-plane distance to
	// every point of the sector (sampled densely).
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		rLo := r.Float64() * 3
		rHi := rLo + r.Float64()*3
		aLo := r.Float64()*2*math.Pi - math.Pi
		aHi := aLo + r.Float64()*2
		qr := r.Float64() * 6
		qa := r.Float64()*2*math.Pi - math.Pi
		rect := geom.Rect{Lo: geom.Point{rLo, aLo}, Hi: geom.Point{rHi, aHi}}
		q := geom.Point{qr, qa}
		bound := PolarCoeffMinDistSq(q, rect.Lo, rect.Hi, 0)

		qx, qy := qr*math.Cos(qa), qr*math.Sin(qa)
		truth := math.Inf(1)
		for i := 0; i <= 40; i++ {
			for j := 0; j <= 40; j++ {
				m := rLo + (rHi-rLo)*float64(i)/40
				ang := aLo + (aHi-aLo)*float64(j)/40
				dx, dy := qx-m*math.Cos(ang), qy-m*math.Sin(ang)
				if d := dx*dx + dy*dy; d < truth {
					truth = d
				}
			}
		}
		if bound > truth+1e-9 {
			t.Fatalf("trial %d: bound %v exceeds true min %v", trial, bound, truth)
		}
		// Tightness: the bound should be within sampling slack of truth.
		if truth-bound > 0.1+0.2*truth {
			t.Fatalf("trial %d: bound %v far below sampled min %v", trial, bound, truth)
		}
	}
}

// twoCosineSectorDistSq is sectorDistSq as it was written before it took one
// cosine per sector edge: the cosine computed again for the law-of-cosines
// term. The reference TestSectorDistOneCosine holds the kernel to.
func twoCosineSectorDistSq(qr, qa, rLo, rHi, aLo, aHi float64) float64 {
	if rLo < 0 {
		rLo = 0
	}
	if rHi < rLo {
		rHi = rLo
	}
	if geom.AngularIntervalContains(aLo, aHi, qa) {
		switch {
		case qr < rLo:
			return (rLo - qr) * (rLo - qr)
		case qr > rHi:
			return (qr - rHi) * (qr - rHi)
		default:
			return 0
		}
	}
	best := math.Inf(1)
	for _, edge := range [2]float64{aLo, aHi} {
		delta := math.Abs(geom.NormalizeAngle(qa - edge))
		m := qr * math.Cos(delta)
		if m < rLo {
			m = rLo
		} else if m > rHi {
			m = rHi
		}
		d := qr*qr + m*m - 2*qr*m*math.Cos(delta)
		if d < best {
			best = d
		}
	}
	if best < 0 {
		best = 0
	}
	return best
}

// TestSectorDistOneCosine: the point-to-sector distance is bit for bit the
// two-cosine formula over random sectors — narrow and wide arcs, arcs drawn
// across the ±π seam, arcs of a full turn or more (the whole annulus),
// negative and inverted radius ranges, queries inside, beside and opposite
// the arc — so taking the cosine once moved no bound. The seed is logged for
// replay.
func TestSectorDistOneCosine(t *testing.T) {
	const seed = 20261015
	t.Logf("seed %d", seed)
	r := rand.New(rand.NewSource(seed))
	kinds := map[string]int{}
	for trial := 0; trial < 200000; trial++ {
		rLo := r.Float64()*4 - 0.5
		rHi := rLo + r.Float64()*3 - 0.2
		aLo := r.Float64()*2*math.Pi - math.Pi
		var width float64
		switch trial % 4 {
		case 0: // narrow
			width = r.Float64() * 0.3
		case 1: // wide
			width = r.Float64() * 2 * math.Pi
		case 2: // across the seam
			aLo = math.Pi - r.Float64()*0.5
			width = 0.5 + r.Float64()
		case 3: // a full turn or more
			width = 2*math.Pi + r.Float64()
		}
		qr, qa := r.Float64()*6, r.Float64()*2*math.Pi-math.Pi
		got := sectorDistSq(qr, qa, rLo, rHi, aLo, aLo+width)
		want := twoCosineSectorDistSq(qr, qa, rLo, rHi, aLo, aLo+width)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: sector r [%v, %v] arc [%v, %v], query (%v, %v): %v, the two-cosine formula %v",
				trial, rLo, rHi, aLo, aLo+width, qr, qa, got, want)
		}
		switch {
		case width >= 2*math.Pi:
			kinds["annulus"]++
		case aLo+width > math.Pi:
			kinds["seam"]++
		}
		if !geom.AngularIntervalContains(aLo, aLo+width, qa) {
			kinds["edge"]++
		}
	}
	for _, k := range []string{"annulus", "seam", "edge"} {
		if kinds[k] < 1000 {
			t.Fatalf("the sectors covered %q %d times: %v", k, kinds[k], kinds)
		}
	}
}

func TestStringAndWithCost(t *testing.T) {
	tr := MovingAverage(8, 3)
	if tr.String() != "mavg(3)" {
		t.Fatalf("String = %q", tr.String())
	}
	anon := T{A: []complex128{1}, B: []complex128{0}}
	if anon.String() == "" {
		t.Fatal("anonymous String empty")
	}
	if c := tr.WithCost(9).Cost; c != 9 {
		t.Fatalf("WithCost = %v", c)
	}
}
