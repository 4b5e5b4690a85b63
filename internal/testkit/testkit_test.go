package testkit

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/transform"
)

// TestPaperExample11: the raw stock series are 11.92 apart and their 3-day
// moving averages 0.47 (the paper's two decimals), through the time form
// and through the spectrum alike.
func TestPaperExample11(t *testing.T) {
	s1 := []float64{36, 38, 40, 38, 42, 38, 36, 36, 37, 38, 39, 38, 40, 38, 37}
	s2 := []float64{40, 37, 37, 42, 41, 35, 40, 35, 34, 42, 38, 35, 45, 36, 34}
	n := len(s1)
	for _, c := range []struct {
		op   Op
		want float64
	}{
		{Identity(n), 11.92},
		{Mavg(n, 3), 0.47},
		{Spectral(transform.MovingAverage(n, 3)), 0.47},
	} {
		if d := distance(c.op.image(s1), c.op.image(s2)); math.Abs(d-c.want) > 0.005 {
			t.Errorf("%s: D = %.4f, the paper says %.2f", c.op.Label, d, c.want)
		}
	}
}

// TestPaperExample12: p warped by 2 is s, so a warped query reaches
// distance 0, while no length-4 subsequence of s comes within 1.41 of p.
func TestPaperExample12(t *testing.T) {
	s := []float64{20, 20, 21, 21, 20, 20, 23, 23}
	p := []float64{20, 21, 20, 23}
	if d := Rank([][]float64{p}, s, Warp(len(p), 2), false)[0].Dist; d > 1e-12 {
		t.Errorf("warp(2) of p is %v from s", d)
	}
	if d := Subsequence([][]float64{s}, p)[0].Dist; d <= 1.41 || d > 1.42 {
		t.Errorf("the nearest length-4 subsequence of s is %v from p, the paper says just over 1.41", d)
	}
}

// TestTimeFormsAreTheSpectra: each operation's time form is the time series
// its spectrum describes, composed or not, so either form of a query
// measures the same distance.
func TestTimeFormsAreTheSpectra(t *testing.T) {
	const n, seed = 32, 20261019
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	ops := []Op{Identity(n), Mavg(n, 5), WeightedMavg(n, []float64{0.5, 0.3, 0.2}), Reverse(n), Scale(n, -1.7), Shift(n, 3)}
	ops = append(ops, Reverse(n).Then(Mavg(n, 5)), Mavg(n, 3).Then(Scale(n, 2)))
	for _, op := range ops {
		x, q := dataset.RandomWalk(rng, n), dataset.RandomWalk(rng, n)
		for _, both := range []bool{false, true} {
			xs := [][]float64{x}
			if got, want := Rank(xs, q, op, both)[0].Dist, Rank(xs, q, Spectral(op.T), both)[0].Dist; math.Abs(got-want) > 1e-9*(1+want) {
				t.Errorf("%s both=%t: time form %v, spectrum %v", op.Label, both, got, want)
			}
		}
	}
}

// TestTiesBreakByName: equal distances rank by position, and a Live set's
// positions are its sorted names.
func TestTiesBreakByName(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := dataset.RandomWalk(rng, 16), dataset.RandomWalk(rng, 16)
	live := Live{"b": x, "c": y, "a": append([]float64(nil), x...)}
	names, values := live.Sorted()
	hits := Rank(values, x, Identity(16), false)
	if names[hits[0].I] != "a" || names[hits[1].I] != "b" || hits[0].Dist != hits[1].Dist {
		t.Fatalf("NN of a tie: %v over %v", hits, names)
	}
	pairs := SelfJoin(values, Identity(16))
	if len(pairs) != 3 || pairs[0] != (Pair{0, 1, pairs[0].Dist}) {
		t.Fatalf("self join: %v", pairs)
	}
	if two := Join(values, Identity(16), Identity(16)); len(two) != 6 {
		t.Fatalf("two-sided join over 3 series: %d ordered pairs", len(two))
	}
}

// TestChecks: each clause of CheckApproxNN, CheckRange and CheckJoin is
// enforced.
func TestChecks(t *testing.T) {
	ranked := []Hit{{2, 1}, {0, 2}, {1, 3}}
	for _, c := range []struct {
		got     []Hit
		nn, rng bool // at delta 0.1: NN k = 2, range eps 2.5
	}{
		{[]Hit{{2, 1}, {0, 2}}, true, true},
		{[]Hit{{2, 1}, {1, 3}}, false, false},   // 3 > 1.1 * 2; 3 > 1.1 * eps
		{[]Hit{{0, 2}, {1, 3}}, false, false},   // 2 > 1.1 * 1; series 2 missing
		{[]Hit{{2, 1}, {0, 2.1}}, false, false}, // not its exact distance
		{[]Hit{{2, 1}, {2, 1}}, false, false},   // twice
		{[]Hit{{2, 1}, {7, 2}}, false, false},   // not a series
		{[]Hit{{2, 1}}, false, false},
	} {
		if err := CheckApproxNN(ranked, c.got, 2, 0.1, 1e-9); (err == nil) != c.nn {
			t.Errorf("NN %v: %v", c.got, err)
		}
		if err := CheckRange(ranked, c.got, 2.5, 0.1, 1e-9); (err == nil) != c.rng {
			t.Errorf("range %v: %v", c.got, err)
		}
	}
	if err := CheckApproxNN(ranked, []Hit{{2, 1}, {1, 3}}, 2, 0.5, 1e-9); err != nil {
		t.Errorf("NN within (1+0.5): %v", err)
	}
	if err := CheckRange(ranked, []Hit{{2, 1}, {0, 2}, {1, 3}}, 2.5, 0.5, 1e-9); err != nil {
		t.Errorf("range within (1+0.5) * eps: %v", err)
	}
	pairs := []Pair{{0, 1, 1}, {1, 2, 2}, {0, 2, 3}} // a self join's
	for _, c := range []struct {
		got []Pair
		ok  bool // at eps 2.5
	}{
		{[]Pair{{0, 1, 1}, {2, 1, 2}}, true},
		{[]Pair{{0, 1, 1}, {1, 0, 1}, {1, 2, 2}, {2, 1, 2}}, true}, // both orientations
		{[]Pair{{0, 1, 1}, {0, 1, 1}, {1, 2, 2}}, false},           // one twice
		{[]Pair{{0, 1, 1}}, false},                                 // (1, 2) missing
		{[]Pair{{0, 1, 1}, {1, 2, 2}, {0, 2, 3}}, false},           // (0, 2) beyond eps
		{[]Pair{{0, 1, 1.5}, {1, 2, 2}}, false},                    // not its exact distance
	} {
		if err := CheckJoin(pairs, c.got, 2.5, 1e-9); (err == nil) != c.ok {
			t.Errorf("join %v: %v", c.got, err)
		}
	}
}
