package dft

import (
	"fmt"
	"math"
)

// Energy returns the energy of a complex signal (paper Equation 3):
// E(x) = sum_t |x_t|^2.
func Energy(x []complex128) float64 {
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e
}

// Distance returns the Euclidean distance between two equal-length complex
// vectors: D(x, y) = sqrt(E(x-y)). By Parseval's relation (Equation 8) this
// is identical whether computed on time-domain signals or their unitary
// spectra.
func Distance(x, y []complex128) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("dft: distance length mismatch %d vs %d", len(x), len(y)))
	}
	var e float64
	for i := range x {
		dr := real(x[i]) - real(y[i])
		di := imag(x[i]) - imag(y[i])
		e += dr*dr + di*di
	}
	return math.Sqrt(e)
}
