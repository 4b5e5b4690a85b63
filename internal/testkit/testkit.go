// Package testkit is the tests' one oracle: a brute force for every query
// kind the engine answers, computed on the series themselves in the time
// domain rather than on their spectra, and the seeded churn script the
// parity suites run against a store.
//
// By Lemma 1 every answer the engine gives must equal what this package
// computes: D(T(nf(x)), nf(q)) one-sided, D(T(nf(x)), T(nf(q))) two-sided,
// ranked by (distance, position). It imports the series, their transforms
// and the data generators and nothing of the filter it judges (feature,
// geom, index, rtree, core): an oracle that shares the filter's code shares
// its bugs. A searched set is a slice, and a hit names its position in it;
// a test that keys its series by name sorts the names first (Live.Sorted),
// so that position order is name order.
package testkit

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/dft"
	"repro/internal/series"
	"repro/internal/transform"
)

// Op is one transformation in both of its forms: T, the spectral (a, b)
// the engine applies, and Time, the same operation written directly on a
// time series. Time is nil for a T that is no real time-domain operation;
// the oracle then measures the complex series whose spectrum T gives.
type Op struct {
	Label string
	T     transform.T
	Time  func([]float64) []float64
}

// Identity leaves a series as it is.
func Identity(n int) Op {
	return Op{"identity", transform.Identity(n), func(x []float64) []float64 { return x }}
}

// Mavg is the l-day circular moving average.
func Mavg(n, l int) Op {
	return Op{fmt.Sprintf("mavg(%d)", l), transform.MovingAverage(n, l),
		func(x []float64) []float64 { return series.MovingAverageCircular(x, l) }}
}

// WeightedMavg is the circular moving average under window weights w:
// out_i = sum_j w_j * x_{(i-j) mod n}.
func WeightedMavg(n int, w []float64) Op {
	return Op{fmt.Sprintf("wmavg(%d)", len(w)), transform.WeightedMovingAverage(n, w),
		func(x []float64) []float64 {
			out := make([]float64, len(x))
			for i := range out {
				for j, wj := range w {
					out[i] += wj * x[((i-j)%n+n)%n]
				}
			}
			return out
		}}
}

// Reverse is the paper's T_rev: every value negated.
func Reverse(n int) Op {
	return Op{"reverse", transform.Reverse(n), series.Negate}
}

// Scale multiplies every value by c.
func Scale(n int, c float64) Op {
	return Op{fmt.Sprintf("scale(%.3g)", c), transform.Scale(n, c),
		func(x []float64) []float64 { return series.Scale(x, c) }}
}

// Shift adds c to every value.
func Shift(n int, c float64) Op {
	return Op{fmt.Sprintf("shift(%.3g)", c), transform.Shift(n, c),
		func(x []float64) []float64 { return series.Shift(x, c) }}
}

// Warp repeats every value m times: a length-n series becomes one of
// length m*n, which a warped query is measured against.
func Warp(n, m int) Op {
	return Op{fmt.Sprintf("warp(%d)", m), transform.Warp(n, m),
		func(x []float64) []float64 { return series.Warp(x, m) }}
}

// Spectral is a transformation known only by its spectrum.
func Spectral(t transform.T) Op { return Op{Label: t.String(), T: t} }

// Then is o followed by next, in both forms.
func (o Op) Then(next Op) Op {
	t, err := o.T.Compose(next.T)
	if err != nil {
		panic(err)
	}
	out := Op{Label: next.Label + "∘" + o.Label, T: t}
	if o.Time != nil && next.Time != nil {
		first, second := o.Time, next.Time
		out.Time = func(x []float64) []float64 { return second(first(x)) }
	}
	return out
}

// image is a series under an Op in the time domain: real, or complex
// where the Op has no real time form.
type image struct {
	re []float64
	c  []complex128
}

func (o Op) image(s []float64) image {
	if o.Time == nil {
		return image{c: dft.Inverse(o.T.Apply(dft.TransformReal(s)))}
	}
	return image{re: o.Time(s)}
}

// distance is the Euclidean distance of two time-domain images.
func distance(x, y image) float64 {
	if x.c == nil && y.c == nil {
		return series.EuclideanDistance(x.re, y.re)
	}
	if x.c == nil {
		x.c = dft.ToComplex(x.re)
	}
	if y.c == nil {
		y.c = dft.ToComplex(y.re)
	}
	if len(x.c) != len(y.c) {
		panic(fmt.Sprintf("testkit: images of lengths %d and %d", len(x.c), len(y.c)))
	}
	var s float64
	for i := range x.c {
		d := x.c[i] - y.c[i]
		s += real(d)*real(d) + imag(d)*imag(d)
	}
	return math.Sqrt(s)
}

// queryImage is q's normal form, under op when both sides are transformed,
// and complex when op's images are.
func queryImage(q []float64, op Op, both bool) image {
	nf := series.NormalForm(q)
	switch {
	case both:
		return op.image(nf)
	case op.Time == nil:
		return image{c: dft.ToComplex(nf)}
	}
	return image{re: nf}
}

// Hit is one series of an answer: its position in the searched slice and
// its distance.
type Hit struct {
	I    int
	Dist float64
}

// Rank is every series of xs by its distance to q — D(T(nf(x)), nf(q)), or
// D(T(nf(x)), T(nf(q))) when both — ascending by (distance, position).
func Rank(xs [][]float64, q []float64, op Op, both bool) []Hit {
	qi := queryImage(q, op, both)
	out := make([]Hit, len(xs))
	for i, x := range xs {
		out[i] = Hit{i, distance(op.image(series.NormalForm(x)), qi)}
	}
	sortHits(out)
	return out
}

// Subsequence is every series of xs by its best window's distance to q
// (series.MinSubsequenceDistance, on raw values), ascending by (distance,
// position).
func Subsequence(xs [][]float64, q []float64) []Hit {
	out := make([]Hit, len(xs))
	for i, x := range xs {
		out[i] = Hit{i, series.MinSubsequenceDistance(x, q)}
	}
	sortHits(out)
	return out
}

func sortHits(h []Hit) {
	slices.SortStableFunc(h, func(a, b Hit) int { return cmp.Compare(a.Dist, b.Dist) })
}

// Pair is one pair of a join: positions A and B and their distance.
type Pair struct {
	A, B int
	Dist float64
}

// SelfJoin is every unordered pair A < B of xs by D(T(nf(x_A)),
// T(nf(x_B))), ascending by (distance, A, B).
func SelfJoin(xs [][]float64, op Op) []Pair {
	return join(xs, op, op, true)
}

// Join is every ordered pair A != B of xs by D(L(nf(x_A)), R(nf(x_B))),
// ascending by (distance, A, B).
func Join(xs [][]float64, left, right Op) []Pair {
	return join(xs, left, right, false)
}

func join(xs [][]float64, left, right Op, unordered bool) []Pair {
	l, r := make([]image, len(xs)), make([]image, len(xs))
	for i, x := range xs {
		nf := series.NormalForm(x)
		l[i], r[i] = left.image(nf), right.image(nf)
	}
	var out []Pair
	for a := range xs {
		b := 0
		if unordered {
			b = a + 1
		}
		for ; b < len(xs); b++ {
			if a != b {
				out = append(out, Pair{a, b, distance(l[a], r[b])})
			}
		}
	}
	slices.SortStableFunc(out, func(a, b Pair) int { return cmp.Compare(a.Dist, b.Dist) })
	return out
}

// CheckRange judges a range answer against ranked, the exact ranking of
// every series that may answer: every series within eps is reported, none
// beyond (1+delta)*eps, each once and at its exact distance — all up to
// slack, so a series within slack of eps may go either way. It returns the
// first violation.
func CheckRange(ranked, got []Hit, eps, delta, slack float64) error {
	reported, err := exactOf(ranked, got, slack)
	if err != nil {
		return err
	}
	for _, h := range got {
		if h.Dist > (1+delta)*eps+slack {
			return fmt.Errorf("series %d reported at %.9f > (1+%g) * eps %.9f", h.I, h.Dist, delta, eps)
		}
	}
	for _, h := range ranked {
		if !reported[h.I] && h.Dist <= eps-slack {
			return fmt.Errorf("series %d at %.9f <= eps %.9f is missing", h.I, h.Dist, eps)
		}
	}
	return nil
}

// CheckApproxNN judges a nearest-neighbour answer — the APPROX tier's
// guarantee, and at delta 0 the exact one — against ranked, the exact
// ranking of every series: min(k, len(ranked)) series are reported, each
// once and at its exact distance, and the i-th within (1+delta) of the
// exact i-th — all up to slack. It returns the first violation.
func CheckApproxNN(ranked, got []Hit, k int, delta, slack float64) error {
	if want := min(k, len(ranked)); len(got) != want {
		return fmt.Errorf("%d neighbours, want %d", len(got), want)
	}
	if _, err := exactOf(ranked, got, slack); err != nil {
		return err
	}
	for i, h := range got {
		if h.Dist > (1+delta)*ranked[i].Dist+slack {
			return fmt.Errorf("rank %d reported %.9f > (1+%g) * %.9f, the exact rank %d", i, h.Dist, delta, ranked[i].Dist, i)
		}
	}
	return nil
}

// CheckJoin judges a join answer against ranked, the exact ranking of every
// pair that may answer (SelfJoin or Join): every pair within eps is
// reported, none beyond eps, each at its exact distance — all up to slack.
// A self join's pair may be reported in either orientation, and in both,
// but no orientation twice. It returns the first violation.
func CheckJoin(ranked, got []Pair, eps, slack float64) error {
	exact := make(map[[2]int]float64, len(ranked))
	for _, p := range ranked {
		exact[[2]int{p.A, p.B}] = p.Dist
	}
	reported, seen := map[[2]int]bool{}, map[[2]int]bool{}
	for _, p := range got {
		key := [2]int{p.A, p.B}
		d, ok := exact[key]
		if !ok {
			key = [2]int{p.B, p.A}
			d, ok = exact[key]
		}
		switch {
		case !ok:
			return fmt.Errorf("pair (%d, %d) reported at %.9f may not answer", p.A, p.B, p.Dist)
		case seen[[2]int{p.A, p.B}]:
			return fmt.Errorf("pair (%d, %d) reported twice", p.A, p.B)
		case math.Abs(p.Dist-d) > slack || p.Dist > eps+slack:
			return fmt.Errorf("pair (%d, %d) reported at %.9f, its exact distance is %.9f (eps %.9f)", p.A, p.B, p.Dist, d, eps)
		}
		seen[[2]int{p.A, p.B}], reported[key] = true, true
	}
	for _, p := range ranked {
		if !reported[[2]int{p.A, p.B}] && p.Dist <= eps-slack {
			return fmt.Errorf("pair (%d, %d) at %.9f <= eps %.9f is missing", p.A, p.B, p.Dist, eps)
		}
	}
	return nil
}

// exactOf checks that got reports only series of ranked, each once and at
// its exact distance up to slack, and returns the reported positions.
func exactOf(ranked, got []Hit, slack float64) (map[int]bool, error) {
	exact := make(map[int]float64, len(ranked))
	for _, h := range ranked {
		exact[h.I] = h.Dist
	}
	seen := make(map[int]bool, len(got))
	for _, h := range got {
		d, ok := exact[h.I]
		switch {
		case !ok:
			return nil, fmt.Errorf("series %d reported at %.9f may not answer", h.I, h.Dist)
		case seen[h.I]:
			return nil, fmt.Errorf("series %d reported twice", h.I)
		case math.Abs(h.Dist-d) > slack:
			return nil, fmt.Errorf("series %d reported at %.9f, its exact distance is %.9f", h.I, h.Dist, d)
		}
		seen[h.I] = true
	}
	return seen, nil
}
