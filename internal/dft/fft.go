package dft

import (
	"math"
	"math/bits"
	"sync"
)

// fft computes the *unnormalized* forward DFT of x in place,
//
//	X_f = sum_t x_t e^{-j 2 pi t f / n}
//
// with the radix-2 kernel at power-of-two n and through Bluestein's chirp-z
// transform otherwise.
func fft(x []complex128) {
	if n := len(x); n&(n-1) == 0 {
		radix2(x)
	} else {
		bluestein(x)
	}
}

// ifft computes the unnormalized inverse DFT of x in place,
// x_t = sum_f X_f e^{+j 2 pi t f / n}: the conjugate of the forward
// transform of the conjugate, so there is one kernel.
func ifft(x []complex128) {
	conjugate(x)
	fft(x)
	conjugate(x)
}

func conjugate(x []complex128) {
	for i, v := range x {
		x[i] = complex(real(v), -imag(v))
	}
}

// twCache holds one twiddle table per power-of-two size n: entry h-1+k is
// e^{-j 2 pi k / 2h} for k < h and every stage h = 1, 2, …, n/2, so a
// butterfly stage's factors lie side by side (and the entries of stage n/2
// are W_n^k). Each entry is computed once, by math.Sincos: nothing rotates
// incrementally, so nothing drifts.
var twCache sync.Map

func twiddles(n int) []complex128 {
	if tw, ok := twCache.Load(n); ok {
		return tw.([]complex128)
	}
	tw := make([]complex128, 0, max(n-1, 0))
	for h := 1; h < n; h <<= 1 {
		for k := 0; k < h; k++ {
			s, c := math.Sincos(-math.Pi * float64(k) / float64(h))
			tw = append(tw, complex(c, s))
		}
	}
	twCache.Store(n, tw)
	return tw
}

// radix2 is the iterative, bit-reversal Cooley-Tukey FFT for power-of-two
// n (0 and 1 included), its twiddles read from the table.
func radix2(x []complex128) {
	n := len(x)
	tw := twiddles(n)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	// The first stage's only twiddle is 1.
	for i := 0; i+1 < n; i += 2 {
		x[i], x[i+1] = x[i]+x[i+1], x[i]-x[i+1]
	}
	for half := 2; half < n; half <<= 1 {
		w := tw[half-1 : 2*half-1]
		for start := 0; start < n; start += 2 * half {
			lo, hi := x[start:start+half], x[start+half:start+2*half]
			for k, wk := range w {
				a, b := lo[k], hi[k]*wk
				lo[k], hi[k] = a+b, a-b
			}
		}
	}
}

// bluestein implements the chirp-z transform: an arbitrary-length forward
// DFT expressed as a circular convolution of chirp-modulated sequences,
// carried out at a power-of-two size m >= 2n-1 with the radix-2 kernel.
func bluestein(x []complex128) {
	n, m := len(x), 1<<bits.Len(uint(2*len(x)-2))
	chirp := make([]complex128, n)
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := range chirp {
		// w_k = e^{-j pi k^2 / n}; k^2 mod 2n keeps the argument small (the
		// chirp is periodic in k^2 mod 2n).
		sq := (int64(k) * int64(k)) % int64(2*n)
		s, c := math.Sincos(-math.Pi * float64(sq) / float64(n))
		chirp[k] = complex(c, s)
		a[k] = x[k] * chirp[k]
		b[k] = complex(c, -s)
		if k > 0 {
			b[m-k] = b[k]
		}
	}
	radix2(a)
	radix2(b)
	// The inverse transform of the product, as the conjugate of the forward
	// transform of its conjugate, divided by m.
	for i := range a {
		p := a[i] * b[i]
		a[i] = complex(real(p), -imag(p))
	}
	radix2(a)
	scale := 1 / float64(m)
	for k, w := range chirp {
		x[k] = complex(real(a[k])*scale, -imag(a[k])*scale) * w
	}
}
