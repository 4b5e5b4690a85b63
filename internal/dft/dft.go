// Package dft implements the unitary discrete Fourier transform used
// throughout the reproduction of Rafiei & Mendelzon, "Similarity-Based
// Queries for Time Series Data" (SIGMOD 1997).
//
// Following the paper's convention (Equations 1 and 2, after [AFS93, FRM94]),
// both the forward and the inverse transform carry a 1/sqrt(n) factor:
//
//	X_f = (1/sqrt(n)) * sum_t x_t * e^{-j 2 pi t f / n}
//	x_t = (1/sqrt(n)) * sum_f X_f * e^{+j 2 pi t f / n}
//
// This makes the transform unitary, so Parseval's relation (Equation 7)
// holds with no extra scaling: E(x) == E(X), and the Euclidean distance
// between two signals is identical in the time and frequency domains
// (Equation 8). Those two properties are load-bearing for the paper's
// Lemma 1 (no false dismissals when indexing only the first k coefficients).
//
// There is one FFT kernel: an iterative radix-2 transform whose twiddle
// factors come from a table computed once per size with math.Sincos. Other
// sizes reduce to it through Bluestein's chirp-z algorithm, and the inverse
// is the forward transform of the conjugate. A real series — every stored
// series and every query — goes through HalfInto, which packs its n values
// as n/2 complex ones, runs one n/2-point FFT and splits the result into
// the half of the spectrum that determines the rest. All of it runs in
// O(n log n).
package dft

import (
	"math"
	"math/cmplx"
	"slices"
)

// Transform returns the unitary DFT of x. The input is not modified.
// An empty input yields an empty output.
func Transform(x []complex128) []complex128 { return unitary(x, false) }

// Inverse returns the unitary inverse DFT of X. Inverse(Transform(x))
// reconstructs x up to floating-point error.
func Inverse(X []complex128) []complex128 { return unitary(X, true) }

// unitary transforms a copy of x forward or back and scales it by
// 1/sqrt(n).
func unitary(x []complex128, inverse bool) []complex128 {
	if len(x) == 0 {
		return nil
	}
	out := slices.Clone(x)
	if inverse {
		ifft(out)
	} else {
		fft(out)
	}
	scale := 1 / math.Sqrt(float64(len(out)))
	for i, v := range out {
		out[i] = complex(real(v)*scale, imag(v)*scale)
	}
	return out
}

// TransformReal returns the unitary DFT of a real series: HalfInto's half,
// completed by its conjugate mirror X_{n-f} = conj(X_f).
func TransformReal(x []float64) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	h := len(HalfInto(out[:0], x))
	for f := h; f < n; f++ {
		v := out[n-f]
		out[f] = complex(real(v), -imag(v))
	}
	return out
}

// Slow computes the unitary DFT by the O(n^2) definition. It exists as an
// oracle for tests and benchmarks; production callers should use Transform.
func Slow(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	for f := 0; f < n; f++ {
		var sum complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(t) * float64(f) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, angle))
		}
		out[f] = sum / complex(math.Sqrt(float64(n)), 0)
	}
	return out
}

// ToComplex widens a real series to complex128.
func ToComplex(x []float64) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = complex(v, 0)
	}
	return out
}

// RealParts extracts the real components of a complex series. It is the
// inverse of ToComplex for series whose imaginary parts are (numerically)
// zero, such as inverse transforms of spectra of real series.
func RealParts(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = real(v)
	}
	return out
}
