package dft

import "fmt"

// Convolve returns the circular convolution of x and y (paper Equation 4):
//
//	Conv(x, y)_i = sum_k x_k * y_{(i-k) mod n}
//
// computed in O(n log n) via the convolution-multiplication property
// (Equation 6). Both inputs must have the same length.
func Convolve(x, y []complex128) []complex128 {
	n := len(x)
	if len(y) != n {
		panic(fmt.Sprintf("dft: convolve length mismatch %d vs %d", n, len(y)))
	}
	if n == 0 {
		return nil
	}
	a := make([]complex128, n)
	b := make([]complex128, n)
	copy(a, x)
	copy(b, y)
	fft(a)
	fft(b)
	for i := range a {
		a[i] *= b[i]
	}
	ifft(a)
	scale := complex(1/float64(n), 0)
	for i := range a {
		a[i] *= scale
	}
	return a
}

// ConvolveReal circularly convolves two real series and returns the real
// result. See Convolve.
func ConvolveReal(x, y []float64) []float64 {
	return RealParts(Convolve(ToComplex(x), ToComplex(y)))
}

// ConvolveSlow is the O(n^2) definitional circular convolution, kept as a
// test oracle for Convolve.
func ConvolveSlow(x, y []complex128) []complex128 {
	n := len(x)
	if len(y) != n {
		panic(fmt.Sprintf("dft: convolve length mismatch %d vs %d", n, len(y)))
	}
	out := make([]complex128, n)
	for i := 0; i < n; i++ {
		var sum complex128
		for k := 0; k < n; k++ {
			j := i - k
			if j < 0 {
				j += n
			}
			sum += x[k] * y[j]
		}
		out[i] = sum
	}
	return out
}

// Spectrum returns the frequency response of a filter mask m: its
// *unnormalized* DFT, A_f = sum_t m_t e^{-j 2 pi t f / n}.
//
// This is the correct element-wise multiplier relating unitary spectra under
// circular convolution: if y = Conv(x, m), then Y_f = A_f * X_f where X and
// Y are unitary DFTs. (With the paper's 1/sqrt(n) convention on both sides,
// the multiplier absorbs the missing sqrt(n): A = sqrt(n) * Transform(m).)
// The paper's moving-average transformation T_mavg = (M, 0) is built from
// exactly this quantity.
func Spectrum(m []float64) []complex128 {
	n := len(m)
	if n == 0 {
		return nil
	}
	out := ToComplex(m)
	fft(out)
	return out
}
