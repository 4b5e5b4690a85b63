package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// familySize is how many near-duplicate variants share one base walk. A
// selective query (RANGE EPS 1, NN K 3) therefore has a non-trivial answer
// — some of the query's family — instead of only the query series itself,
// which is what lets the oracle check more than self-matches and keeps NN
// cheap on the front-end workload.
const familySize = 4

// familyNoise is each variant's white-noise amplitude relative to its base
// walk's standard deviation. In normal form a variant lies about
// 16·amplitude (sqrt(256)·amplitude) from its base, so EPS 1 admits some
// members of a family and not others.
var familyNoise = [familySize]float64{0, 0.02, 0.04, 0.08}

// round2 quantizes to 1/100 so a value's shortest decimal text round-trips
// through the CSV the tsqd child parses: the oracle's copy and the
// program's copy are the same float64s.
func round2(v float64) float64 { return math.Round(v*100) / 100 }

// dataset is the harness's own in-memory copy of what it generated; the
// oracle answers from it, never from the program.
type dataset struct {
	names  []string
	values [][]float64
	index  map[string]int
}

func seriesName(i int) string { return fmt.Sprintf("S%05d", i) }

// genWalks draws count random walks x_t = x_{t-1} + z_t (z standard
// normal, x_0 uniform in [20, 100)) of the given length, in families of
// familySize: the first member is the base walk, the others add white
// noise scaled to the base's spread.
func genWalks(rng *rand.Rand, count, length int) *dataset {
	d := &dataset{
		names:  make([]string, count),
		values: make([][]float64, count),
		index:  make(map[string]int, count),
	}
	flat := make([]float64, count*length)
	var base []float64
	var spread float64
	for i := 0; i < count; i++ {
		v := flat[i*length : (i+1)*length : (i+1)*length]
		member := i % familySize
		if member == 0 {
			x := 20 + 80*rng.Float64()
			for t := range v {
				x += rng.NormFloat64()
				v[t] = round2(x)
			}
			base, spread = v, stddev(v)
		} else {
			amp := familyNoise[member] * spread
			for t := range v {
				v[t] = round2(base[t] + amp*rng.NormFloat64())
			}
		}
		d.names[i] = seriesName(i)
		d.values[i] = v
		d.index[d.names[i]] = i
	}
	return d
}

func stddev(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	mean := sum / float64(len(v))
	var ss float64
	for _, x := range v {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss / float64(len(v)))
}

// perturb returns a noisy copy of v — a raw query vector that is not a
// stored record, so the program must extract features and FFT it.
func perturb(rng *rand.Rand, v []float64, rel float64) []float64 {
	amp := rel * stddev(v)
	out := make([]float64, len(v))
	for t := range v {
		out[t] = round2(v[t] + amp*rng.NormFloat64())
	}
	return out
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)
// (exponent 1, which math/rand's Zipf cannot do), mapped through a seeded
// shuffle so popularity is unrelated to insertion order or family.
type zipf struct {
	cdf  []float64
	perm []int
}

func newZipf(rng *rand.Rand, n int) *zipf {
	z := &zipf{cdf: make([]float64, n), perm: rng.Perm(n)}
	var sum float64
	for r := 0; r < n; r++ {
		sum += 1 / float64(r+1)
		z.cdf[r] = sum
	}
	for r := range z.cdf {
		z.cdf[r] /= sum
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	r := sort.SearchFloat64s(z.cdf, rng.Float64())
	if r >= len(z.perm) {
		r = len(z.perm) - 1
	}
	return z.perm[r]
}

// top returns the series index holding popularity rank r.
func (z *zipf) top(r int) int { return z.perm[r] }

type opKind int

const (
	opRange opKind = iota
	opNN
)

// op is one generated read. It names a stored series (series >= 0, values
// nil) or carries a raw vector (values set).
type op struct {
	kind   opKind
	series int
	values []float64
	eps    float64
	k      int
	mavg   int // 0, or the window of a mavg(w) applied to BOTH sides
	// using pins the execution strategy ("index" or "scan"); empty leaves
	// it to the planner.
	using string
}

// hashOps fingerprints an op list: same seed, same hash.
func hashOps(ops []op) string {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, o := range ops {
		put(uint64(o.kind))
		put(uint64(int64(o.series)))
		put(math.Float64bits(o.eps))
		put(uint64(o.k))
		put(uint64(o.mavg))
		h.Write([]byte(o.using))
		put(uint64(len(o.values)))
		for _, v := range o.values {
			put(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
