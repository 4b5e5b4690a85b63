package dft

import (
	"math"
	"slices"
)

// HalfInto writes X_0 … X_{⌊n/2⌋}, the unitary DFT of the real series x up
// to its middle frequency, into dst's capacity (grown if short) and returns
// it; the rest of the spectrum is the conjugate mirror, X_{n-f} =
// conj(X_f). Im X_0 is exactly 0, and so is Im X_{n/2} for even n.
//
// Even n packs the series as n/2 complex values z_t = x_{2t} + j x_{2t+1},
// transforms them with one n/2-point FFT in dst and splits the result (the
// two-for-one real transform); odd n runs the full complex transform and
// keeps the half.
func HalfInto(dst []complex128, x []float64) []complex128 {
	n := len(x)
	if n%2 == 1 {
		dst = append(dst[:0], Transform(ToComplex(x))[:n/2+1]...)
		dst[0] = complex(real(dst[0]), 0)
		return dst
	}
	if n == 0 {
		return dst[:0]
	}
	m := n / 2
	dst = slices.Grow(dst[:0], m+1)[:m+1]
	for t := range dst[:m] {
		dst[t] = complex(x[2*t], x[2*t+1])
	}
	var w []complex128 // W^k = e^{-j 2 pi k / n}, k < m
	if m&(m-1) == 0 {
		radix2(dst[:m])
		w = twiddles(n)[m-1:]
	} else {
		bluestein(dst[:m])
		w = make([]complex128, m)
		for k := range w {
			s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
			w[k] = complex(c, s)
		}
	}
	// The split: with Z = dst[:m] and Z_m = Z_0, X_k = E_k + W^k·O_k where
	// E_k = (Z_k + conj Z_{m-k})/2 and O_k = (Z_k − conj Z_{m-k})/2j are the
	// spectra of the even and odd samples. k and m-k come from the same two
	// loads, since E_{m-k} = conj E_k, O_{m-k} = conj O_k and W^{m-k} =
	// −conj W^k: X_{m-k} = conj(E_k − W^k·O_k). At k = 0 and m, E and O are
	// real and W^k = ±1, so X_0 and X_m are real by construction; at k = m/2,
	// W^k = −j and X_{m/2} = conj Z_{m/2}.
	s := 0.5 / math.Sqrt(float64(n))
	z0 := dst[0]
	dst[0] = complex((real(z0)+imag(z0))*(2*s), 0)
	dst[m] = complex((real(z0)-imag(z0))*(2*s), 0)
	for k := 1; k < m-k; k++ {
		a, b := dst[k], complex(real(dst[m-k]), -imag(dst[m-k]))
		e, d := a+b, a-b                        // 2E_k, 2j·O_k
		wo := w[k] * complex(imag(d), -real(d)) // W^k·2O_k
		p, q := e+wo, e-wo
		dst[k] = complex(real(p)*s, imag(p)*s)
		dst[m-k] = complex(real(q)*s, -imag(q)*s)
	}
	if m%2 == 0 {
		z := dst[m/2]
		dst[m/2] = complex(real(z)*(2*s), -imag(z)*(2*s))
	}
	return dst
}
