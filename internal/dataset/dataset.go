// Package dataset generates the synthetic workloads of the paper's
// experiments (Section 5) and the stock-like ensemble that substitutes for
// the defunct "ftp.ai.mit.edu/pub/stocks/results/" data.
//
// The paper's random sequences are
//
//	x_0 = y,  x_i = x_{i-1} + z_i
//
// with y drawn from [20, 99] and z_i from [-4, 4]. (The paper calls y
// "normally distributed ... in the range [20, 99]", a contradiction in
// terms; we draw it uniformly, and the Gaussian-step variant is available
// for sensitivity checks.)
//
// The stock-like ensemble used by Figure 12 and Table 1 reproduces the
// property those experiments depend on: 1067 series of length 128 in which
// exactly twelve pairs are similar under the 20-day-moving-average
// transformation at the published threshold — three of them so close that
// they match even without the transformation (giving Table 1's answer-set
// sizes 12/12/3x2/12x2) — while all other pairs stay far away.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/series"
)

// Series is a named time sequence.
type Series struct {
	Name   string
	Values []float64
}

// RandomWalk produces one sequence of the paper's synthetic model using
// the supplied random source.
func RandomWalk(r *rand.Rand, length int) []float64 {
	s := make([]float64, length)
	v := 20 + r.Float64()*79
	for i := range s {
		s[i] = v
		v += r.Float64()*8 - 4
	}
	return s
}

// RandomWalkGaussian is the variant with Gaussian steps (sigma chosen so
// the step variance matches the uniform [-4, 4] steps).
func RandomWalkGaussian(r *rand.Rand, length int) []float64 {
	const sigma = 2.3094 // sqrt(16/3), variance of U[-4,4]
	s := make([]float64, length)
	v := 20 + r.Float64()*79
	for i := range s {
		s[i] = v
		v += r.NormFloat64() * sigma
	}
	return s
}

// HarmonicTwin returns base plus c*cos(2*pi*t/n + phi), with c chosen so
// the twin keeps base's standard deviation: the two normal forms then
// differ on DFT coefficients 1 and n-1 alone, which makes the twin the
// neighbour whose Lemma 1 bound holds with equality. phi sits offset
// radians from the phase at which the cosine is uncorrelated with base
// (c = 0), so offset steers the distance between the two: ~1 for offset 1,
// ~1e-4 for offset 1e-4.
func HarmonicTwin(base []float64, offset float64) []float64 {
	n := float64(len(base))
	mu := series.Mean(base)
	var cc, cs float64
	for t, v := range base {
		ang := 2 * math.Pi * float64(t) / n
		cc += (v - mu) * math.Cos(ang) / n
		cs += (v - mu) * math.Sin(ang) / n
	}
	// cov(base, cos(.+phi)) = cc*cos(phi) - cs*sin(phi); it vanishes at
	// atan2(cc, cs), and grows with the offset from it.
	phi := math.Atan2(cc, cs) + offset
	c := -4 * (cc*math.Cos(phi) - cs*math.Sin(phi))
	twin := make([]float64, len(base))
	for t, v := range base {
		twin[t] = v + c*math.Cos(2*math.Pi*float64(t)/n+phi)
	}
	return twin
}

// RandomWalks generates count independent random-walk series with
// deterministic naming ("W0000", "W0001", ...).
func RandomWalks(count, length int, seed int64) []Series {
	r := rand.New(rand.NewSource(seed))
	out := make([]Series, count)
	for i := range out {
		out[i] = Series{Name: fmt.Sprintf("W%04d", i), Values: RandomWalk(r, length)}
	}
	return out
}

// Pair identifies two series by index into the generated slice.
type Pair struct{ A, B int }

// StockEnsemble is the stock-like data set with its planted ground truth.
type StockEnsemble struct {
	Series []Series
	// SmoothPairs are similar only after the 20-day moving average: their
	// raw normal forms differ by high-frequency noise that smoothing
	// removes.
	SmoothPairs []Pair
	// RawPairs are similar both before and after smoothing.
	RawPairs []Pair
	// ReversedPairs move oppositely: similar after Reverse + mavg(20)
	// (Example 2.2's hedging query).
	ReversedPairs []Pair
	// Epsilon is the range-query threshold under which exactly
	// RawPairs are similar without transformation and
	// RawPairs+SmoothPairs are similar under mavg(20).
	Epsilon float64
}

// AllMavgPairs returns the pairs similar under the 20-day moving average at
// the ensemble threshold: the planted smooth pairs plus the raw pairs.
func (e *StockEnsemble) AllMavgPairs() []Pair {
	out := make([]Pair, 0, len(e.SmoothPairs)+len(e.RawPairs))
	out = append(out, e.RawPairs...)
	out = append(out, e.SmoothPairs...)
	return out
}

// StockLike generates the Table 1 / Figure 12 substitute ensemble: count
// series of the given length (the paper uses 1067 x 128), with rawPairs
// planted raw-similar pairs, smoothPairs planted smooth-only pairs, and
// reversedPairs planted opposite-movement pairs. Partners are appended
// after the independent base walks, so count must be at least
// 2*(rawPairs+smoothPairs+reversedPairs).
func StockLike(count, length int, seed int64, rawPairs, smoothPairs, reversedPairs int) (*StockEnsemble, error) {
	planted := rawPairs + smoothPairs + reversedPairs
	if count < 2*planted {
		return nil, fmt.Errorf("dataset: %d series cannot hold %d planted pairs", count, planted)
	}
	if length < 24 {
		return nil, fmt.Errorf("dataset: length %d too short for 20-day moving averages", length)
	}
	r := rand.New(rand.NewSource(seed))
	base := count - planted
	out := &StockEnsemble{Epsilon: 1.0}
	out.Series = make([]Series, 0, count)

	// Base walks are rejection-sampled so that every pair of accepted
	// walks (and every walk against every negated walk) keeps its
	// smoothed normal forms at least separationMargin apart. Since the
	// 20-day moving average is a contraction of the spectrum, raw
	// normal-form distances are at least as large, so the margin
	// guarantees that *only* the planted pairs fall under Epsilon — raw
	// or smoothed, direct or reversed. Rejections are rare (typical
	// random distances are an order of magnitude above the margin).
	// Normal-form energy grows with sqrt(length), so the margin scales
	// accordingly (3.0 at the paper's length of 128).
	separationMargin := 3.0 * math.Sqrt(float64(length)/128)
	accepted := make([][]float64, 0, base) // smoothed normal forms
	for i := 0; i < base; i++ {
		var vals []float64
		for attempt := 0; ; attempt++ {
			if attempt > 1000 {
				return nil, fmt.Errorf("dataset: could not separate %d walks of length %d", count, length)
			}
			vals = RandomWalk(r, length)
			sm := series.MovingAverageCircular(series.NormalForm(vals), 20)
			ok := true
			for _, prev := range accepted {
				if within, _ := series.EuclideanWithin(sm, prev, separationMargin); within {
					ok = false
					break
				}
				neg := series.Negate(prev)
				if within, _ := series.EuclideanWithin(sm, neg, separationMargin); within {
					ok = false
					break
				}
			}
			if ok {
				accepted = append(accepted, sm)
				break
			}
		}
		out.Series = append(out.Series, Series{Name: fmt.Sprintf("S%04d", i), Values: vals})
	}
	next := base

	// Planted-partner noise amplitudes scale with the source walk's
	// standard deviation so the *normal-form* distances they induce are
	// independent of the walk's absolute volatility.
	// Raw-similar partners: tiny additive noise, nf distance ~0.3.
	for i := 0; i < rawPairs; i++ {
		src := i // pair with the i-th base walk
		sd := series.Std(out.Series[src].Values)
		vals := perturb(r, out.Series[src].Values, 0.025*sd)
		out.Series = append(out.Series, Series{Name: fmt.Sprintf("R%04d", i), Values: vals})
		out.RawPairs = append(out.RawPairs, Pair{A: src, B: next})
		next++
	}
	// Smooth-only partners: strong high-frequency (alternating-sign) noise
	// pushes the raw normal-form distance beyond epsilon (~2.5) while the
	// 20-day moving average attenuates it to ~0.2.
	for i := 0; i < smoothPairs; i++ {
		src := rawPairs + i
		sd := series.Std(out.Series[src].Values)
		vals := perturbHF(r, out.Series[src].Values, 0.2*sd)
		out.Series = append(out.Series, Series{Name: fmt.Sprintf("M%04d", i), Values: vals})
		out.SmoothPairs = append(out.SmoothPairs, Pair{A: src, B: next})
		next++
	}
	// Reversed partners: negated source plus mild high-frequency noise.
	for i := 0; i < reversedPairs; i++ {
		src := rawPairs + smoothPairs + i
		neg := make([]float64, length)
		for j, v := range out.Series[src].Values {
			neg[j] = 200 - v
		}
		sd := series.Std(out.Series[src].Values)
		vals := perturbHF(r, neg, 0.1*sd)
		out.Series = append(out.Series, Series{Name: fmt.Sprintf("V%04d", i), Values: vals})
		out.ReversedPairs = append(out.ReversedPairs, Pair{A: src, B: next})
		next++
	}
	return out, nil
}

// DefaultStockEnsemble generates the published configuration: 1067 series
// of length 128 with 3 raw pairs and 9 smooth-only pairs (Table 1's twelve
// mavg-similar pairs, three findable without the transformation) plus 4
// reversed pairs for the hedging examples.
func DefaultStockEnsemble(seed int64) *StockEnsemble {
	e, err := StockLike(1067, 128, seed, 3, 9, 4)
	if err != nil {
		panic(err) // static configuration, cannot fail
	}
	return e
}

// perturb adds i.i.d. Gaussian noise of the given sigma.
func perturb(r *rand.Rand, s []float64, sigma float64) []float64 {
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = v + r.NormFloat64()*sigma
	}
	return out
}

// perturbHF adds alternating-sign noise of the given amplitude: a signal
// concentrated at the top of the spectrum, which a 20-day moving average
// attenuates by roughly 1/20.
func perturbHF(r *rand.Rand, s []float64, amp float64) []float64 {
	out := make([]float64, len(s))
	sign := 1.0
	for i, v := range s {
		out[i] = v + sign*amp*(0.5+r.Float64())
		sign = -sign
	}
	return out
}
