// Package series implements the time-domain sequence operations of
// Rafiei & Mendelzon (SIGMOD 1997): the normal form of Goldin & Kanellakis
// (Equation 9), the paper's circular moving average (Example 1.1,
// Equation 11), weighted moving averages, series reversal (Example 2.2,
// T_rev: multiply every value by -1), time warping (Example 1.2,
// Appendix A), and Euclidean / city-block distances with early abandoning.
//
// A time series here is a plain []float64; every function is pure and never
// mutates its input.
package series

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of s. The mean of an empty series is 0.
func Mean(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// Var returns the population variance of s (normalized by n, matching the
// normal-form convention of GK95 where std is the population standard
// deviation).
func Var(s []float64) float64 {
	_, v := meanVar(s)
	return v
}

// meanVar returns the mean and the population variance of s.
func meanVar(s []float64) (mean, variance float64) {
	if len(s) == 0 {
		return 0, 0
	}
	mean = Mean(s)
	for _, v := range s {
		d := v - mean
		variance += d * d
	}
	return mean, variance / float64(len(s))
}

// Std returns the population standard deviation of s.
func Std(s []float64) float64 {
	return math.Sqrt(Var(s))
}

// NormalForm returns the normal form of s (paper Equation 9, after GK95):
//
//	s'_i = (s_i - mean(s)) / std(s)
//
// The normal form has mean 0 and standard deviation 1, which is why the
// paper can drop the first DFT coefficient (it is proportional to the mean,
// hence always zero) and store mean and std as two separate index
// dimensions. A constant series has zero standard deviation; its normal
// form is defined here as the all-zero series, which keeps the decomposition
// s = mean + std * normalform exact.
func NormalForm(s []float64) []float64 {
	out := make([]float64, len(s))
	NormalFormInto(out, s)
	return out
}

// NormalFormInto writes the normal form of s into dst (len(dst) >= len(s))
// and returns the mean and the standard deviation it divided by — each
// computed once, bit for bit what Mean and Std return.
func NormalFormInto(dst, s []float64) (mean, std float64) {
	mean, variance := meanVar(s)
	std = math.Sqrt(variance)
	dst = dst[:len(s)]
	if std == 0 {
		clear(dst)
		return mean, std
	}
	for i, v := range s {
		dst[i] = (v - mean) / std
	}
	return mean, std
}

// Shift returns s with c added to every value.
func Shift(s []float64, c float64) []float64 {
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = v + c
	}
	return out
}

// Scale returns s with every value multiplied by c.
func Scale(s []float64, c float64) []float64 {
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = v * c
	}
	return out
}

// Negate returns s with every value multiplied by -1. This is the paper's
// series reversal T_rev of Example 2.2, used to find stocks with opposite
// price movements (note: it negates values, it does not reverse time order).
func Negate(s []float64) []float64 {
	return Scale(s, -1)
}

// MovingAverageCircular returns the l-day circular moving average of s, the
// variant the paper adopts because it is expressible as a circular
// convolution (Section 1, Example 1.1): the averaging window wraps around
// to the end of the sequence when it reaches the beginning, producing an
// output of the same length n. Concretely,
//
//	out_i = (1/l) * sum_{j=0}^{l-1} s_{(i-j) mod n}
//
// which equals Conv(s, m_l) for the mask m_l = (1/l, ..., 1/l, 0, ..., 0)
// (Equation 11). When l is small relative to n this and the ordinary sliding
// average are almost identical, as the paper notes.
//
// MovingAverageCircular panics if l < 1 or l > len(s).
func MovingAverageCircular(s []float64, l int) []float64 {
	n := len(s)
	if l < 1 || l > n {
		panic(fmt.Sprintf("series: moving average window %d out of range [1,%d]", l, n))
	}
	out := make([]float64, n)
	// Rolling sum: out_i = out_{i-1} + s_i - s_{i-l}.
	var sum float64
	for j := 0; j < l; j++ {
		idx := (0 - j + n*l) % n
		sum += s[idx]
	}
	inv := 1 / float64(l)
	out[0] = sum * inv
	for i := 1; i < n; i++ {
		drop := (i - l + n*l) % n
		sum += s[i] - s[drop]
		out[i] = sum * inv
	}
	return out
}

// MovingAverageSliding returns the ordinary l-day moving average of s: the
// mean of each l-wide window stepped through the sequence, producing
// len(s)-l+1 values (the textbook variant the paper describes before
// adopting the circular one).
//
// MovingAverageSliding panics if l < 1 or l > len(s).
func MovingAverageSliding(s []float64, l int) []float64 {
	n := len(s)
	if l < 1 || l > n {
		panic(fmt.Sprintf("series: moving average window %d out of range [1,%d]", l, n))
	}
	out := make([]float64, n-l+1)
	var sum float64
	for i := 0; i < l; i++ {
		sum += s[i]
	}
	inv := 1 / float64(l)
	out[0] = sum * inv
	for i := 1; i < len(out); i++ {
		sum += s[i+l-1] - s[i-1]
		out[i] = sum * inv
	}
	return out
}

// WeightedMovingAverageCircular returns the circular moving average of s
// under arbitrary window weights w (paper Section 3.2: "the weights
// w_1...w_m are not necessarily equal" — trend-prediction averages weight
// recent days more). The result is Conv(s, mask) where mask places w at the
// front of an n-length vector:
//
//	out_i = sum_{j=0}^{len(w)-1} w_j * s_{(i-j) mod n}
//
// WeightedMovingAverageCircular panics if w is empty or longer than s.
func WeightedMovingAverageCircular(s []float64, w []float64) []float64 {
	n := len(s)
	if len(w) < 1 || len(w) > n {
		panic(fmt.Sprintf("series: weight window %d out of range [1,%d]", len(w), n))
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		var sum float64
		for j, wj := range w {
			idx := i - j
			if idx < 0 {
				idx += n
			}
			sum += wj * s[idx]
		}
		out[i] = sum
	}
	return out
}

// MovingAverageMask returns the length-n convolution mask of the l-day
// moving average (paper Equation 11): l leading entries of 1/l followed by
// zeros. Conv(s, MovingAverageMask(len(s), l)) == MovingAverageCircular(s, l).
func MovingAverageMask(n, l int) []float64 {
	if l < 1 || l > n {
		panic(fmt.Sprintf("series: moving average window %d out of range [1,%d]", l, n))
	}
	mask := make([]float64, n)
	inv := 1 / float64(l)
	for i := 0; i < l; i++ {
		mask[i] = inv
	}
	return mask
}

// Warp returns the time-warped stretch of s by integer factor m >= 1
// (paper Example 1.2 and Appendix A, Equation 16): every value is repeated
// m consecutive times, yielding a series of length m*len(s).
func Warp(s []float64, m int) []float64 {
	if m < 1 {
		panic(fmt.Sprintf("series: warp factor %d must be >= 1", m))
	}
	out := make([]float64, 0, m*len(s))
	for _, v := range s {
		for j := 0; j < m; j++ {
			out = append(out, v)
		}
	}
	return out
}

// EuclideanDistance returns the L2 distance between equal-length series.
func EuclideanDistance(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("series: distance length mismatch %d vs %d", len(x), len(y)))
	}
	return math.Sqrt(euclideanDistSq(x, y))
}

// euclideanDistSq accumulates the squared terms through one accumulator in
// index order — the 4-wide unrolling changes instruction scheduling, not
// the float addition order, so the sum is bit-identical to the naive loop.
func euclideanDistSq(x, y []float64) float64 {
	n := len(x)
	y = y[:n]
	var s float64
	i := 0
	for ; i+3 < n; i += 4 {
		d0 := x[i] - y[i]
		d1 := x[i+1] - y[i+1]
		d2 := x[i+2] - y[i+2]
		d3 := x[i+3] - y[i+3]
		s += d0 * d0
		s += d1 * d1
		s += d2 * d2
		s += d3 * d3
	}
	for ; i < n; i++ {
		d := x[i] - y[i]
		s += d * d
	}
	return s
}

// CityBlockDistance returns the L1 distance between equal-length series
// (mentioned by the paper as an alternative base distance).
func CityBlockDistance(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("series: distance length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i := range x {
		s += math.Abs(x[i] - y[i])
	}
	return s
}

// EuclideanWithin reports whether the Euclidean distance between x and y is
// at most eps, abandoning the accumulation as soon as the partial sum
// exceeds eps^2. This is the optimization the paper applies to its
// sequential-scan baseline ("we stop the distance computation process as
// soon as the distance exceeds eps") and to join method (b) of Table 1.
// It returns the number of terms accumulated before the decision, which the
// experiment harness uses to report work saved.
func EuclideanWithin(x, y []float64, eps float64) (within bool, terms int) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("series: distance length mismatch %d vs %d", len(x), len(y)))
	}
	limit := eps * eps
	n := len(x)
	y = y[:n]
	var s float64
	i := 0
	// Unrolled 4-wide with the per-term abandon check kept at every term,
	// so both the accumulation order and the reported term count match the
	// naive loop exactly.
	for ; i+3 < n; i += 4 {
		d := x[i] - y[i]
		s += d * d
		if s > limit {
			return false, i + 1
		}
		d = x[i+1] - y[i+1]
		s += d * d
		if s > limit {
			return false, i + 2
		}
		d = x[i+2] - y[i+2]
		s += d * d
		if s > limit {
			return false, i + 3
		}
		d = x[i+3] - y[i+3]
		s += d * d
		if s > limit {
			return false, i + 4
		}
	}
	for ; i < n; i++ {
		d := x[i] - y[i]
		s += d * d
		if s > limit {
			return false, i + 1
		}
	}
	return true, n
}

// MinSubsequenceDistance returns the minimum Euclidean distance between the
// short series q and any contiguous subsequence of s of length len(q)
// (used by Example 1.2's observation that no length-4 subsequence of s is
// within 1.41 of p). It panics if q is longer than s or either is empty.
func MinSubsequenceDistance(s, q []float64) float64 {
	if len(q) == 0 || len(q) > len(s) {
		panic(fmt.Sprintf("series: subsequence length %d out of range [1,%d]", len(q), len(s)))
	}
	best := math.Inf(1)
	for off := 0; off+len(q) <= len(s); off++ {
		var sum float64
		for i := range q {
			d := s[off+i] - q[i]
			sum += d * d
			if sum >= best {
				break
			}
		}
		if sum < best {
			best = sum
		}
	}
	return math.Sqrt(best)
}

// BestSubsequenceMatch returns the offset and Euclidean distance of the
// contiguous length-len(q) window of s closest to q (the subsequence
// comparison of the paper's Example 1.2, generalized). Inner sums abandon
// as soon as they exceed the best window so far. It panics under the same
// conditions as MinSubsequenceDistance.
func BestSubsequenceMatch(s, q []float64) (offset int, dist float64) {
	if len(q) == 0 || len(q) > len(s) {
		panic(fmt.Sprintf("series: subsequence length %d out of range [1,%d]", len(q), len(s)))
	}
	best := math.Inf(1)
	bestOff := 0
	for off := 0; off+len(q) <= len(s); off++ {
		var sum float64
		for i := range q {
			d := s[off+i] - q[i]
			sum += d * d
			if sum >= best {
				break
			}
		}
		if sum < best {
			best = sum
			bestOff = off
		}
	}
	return bestOff, math.Sqrt(best)
}

// Clone returns a deep copy of s.
func Clone(s []float64) []float64 {
	out := make([]float64, len(s))
	copy(out, s)
	return out
}
