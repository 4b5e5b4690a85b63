package tsq_test

import (
	"math"
	"strings"
	"testing"

	tsq "repro"
)

// FuzzParseTransform: ParseTransform never panics on outside bytes, and what
// it accepts round-trips — Canonical() parses back to the same Canonical(),
// which is what lets it serve as a cache-key component.
func FuzzParseTransform(f *testing.F) {
	for _, tc := range roundTripCases {
		f.Add(tc.spec)
		f.Add(tc.want.Canonical())
	}
	for _, spec := range badTransformSpecs {
		f.Add(spec)
	}
	f.Add("wmavg(1e308, -0, 5e-324)|scale(-1e-7)")
	f.Fuzz(func(t *testing.T, spec string) {
		tr, err := tsq.ParseTransform(spec)
		if err != nil {
			return
		}
		canon := tr.Canonical()
		back, err := tsq.ParseTransform(canon)
		if err != nil {
			t.Fatalf("ParseTransform(%q) = %q, which does not parse back: %v", spec, canon, err)
		}
		if got := back.Canonical(); got != canon {
			t.Fatalf("ParseTransform(%q): round trip drifted %q -> %q", spec, canon, got)
		}
	})
}

var roundTripCases = []struct {
	spec string
	want tsq.Transform
}{
	{"", tsq.Identity()},
	{"identity()", tsq.Identity()},
	{"mavg(20)", tsq.MovingAverage(20)},
	{"reverse()", tsq.Reverse()},
	{"scale(-1.5)", tsq.Scale(-1.5)},
	{"shift(3)", tsq.Shift(3)},
	{"wmavg(0.5, 0.3, 0.2)", tsq.WeightedMovingAverage(0.5, 0.3, 0.2)},
	{"reverse()|mavg(20)", tsq.Reverse().Then(tsq.MovingAverage(20))},
	{"mavg(4)|scale(2)|shift(-1)", tsq.MovingAverage(4).Then(tsq.Scale(2)).Then(tsq.Shift(-1))},
	{"warp(2)", tsq.Warp(2)},
	{"MAVG(20)", tsq.MovingAverage(20)}, // keywords are case-insensitive
}

func TestParseTransformRoundTrip(t *testing.T) {
	for _, tc := range roundTripCases {
		got, err := tsq.ParseTransform(tc.spec)
		if err != nil {
			t.Fatalf("ParseTransform(%q): %v", tc.spec, err)
		}
		if got.Canonical() != tc.want.Canonical() {
			t.Fatalf("ParseTransform(%q).Canonical() = %q, want %q",
				tc.spec, got.Canonical(), tc.want.Canonical())
		}
		// Canonical is itself parseable: a full round trip.
		again, err := tsq.ParseTransform(got.Canonical())
		if err != nil {
			t.Fatalf("ParseTransform(Canonical %q): %v", got.Canonical(), err)
		}
		if again.Canonical() != got.Canonical() {
			t.Fatalf("round trip drifted: %q -> %q", got.Canonical(), again.Canonical())
		}
	}
}

var badTransformSpecs = []string{
	"frobnicate(3)",
	"mavg()",
	"mavg(2.5)",
	"mavg(0)",
	"mavg(3",
	"wmavg()",
	"warp(2)|mavg(3)",
	"mavg(3)|warp(2)",
	"warp(1)",  // query language requires m in [2, 64]
	"warp(70)", // ... and the typed endpoints must agree
	"identity(1)",
	"reverse(1)",
	"mavg(3) extra",
}

func TestParseTransformErrors(t *testing.T) {
	for _, spec := range badTransformSpecs {
		if _, err := tsq.ParseTransform(spec); err == nil {
			t.Errorf("ParseTransform(%q) succeeded, want error", spec)
		}
	}
}

func TestParseTransformApplyEquivalence(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}
	parsed, err := tsq.ParseTransform("reverse()|mavg(4)")
	if err != nil {
		t.Fatal(err)
	}
	built := tsq.Reverse().Then(tsq.MovingAverage(4))
	a, err := parsed.Apply(vals)
	if err != nil {
		t.Fatal(err)
	}
	b, err := built.Apply(vals)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("Apply diverges at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestCanonicalDistinguishesTransforms(t *testing.T) {
	ts := []tsq.Transform{
		tsq.Identity(),
		tsq.MovingAverage(10),
		tsq.MovingAverage(20),
		tsq.MovingAverage(20).Then(tsq.Reverse()),
		tsq.Reverse().Then(tsq.MovingAverage(20)),
		tsq.WeightedMovingAverage(0.5, 0.5),
		tsq.WeightedMovingAverage(0.6, 0.4),
		tsq.Scale(2),
		tsq.Scale(2).WithCost(1),
		tsq.Warp(2),
		tsq.Warp(3),
	}
	seen := map[string]int{}
	for i, tr := range ts {
		c := tr.Canonical()
		if j, dup := seen[c]; dup {
			t.Fatalf("transforms %d and %d share canonical form %q", j, i, c)
		}
		seen[c] = i
	}
	// wmavg spells out every weight, unlike String().
	c := tsq.WeightedMovingAverage(0.6, 0.4).Canonical()
	if !strings.Contains(c, "0.6") || !strings.Contains(c, "0.4") {
		t.Fatalf("wmavg canonical form %q does not spell out weights", c)
	}
}
