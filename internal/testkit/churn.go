package testkit

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// Live is a test's own record of what a store holds: each series' current
// window by name.
type Live map[string][]float64

// Sorted is every stored name, sorted, and the windows in that order.
func (l Live) Sorted() (names []string, values [][]float64) {
	names = slices.Sorted(maps.Keys(l))
	values = make([][]float64, len(names))
	for i, name := range names {
		values[i] = l[name]
	}
	return names, values
}

// Writer is a store's write methods, as the churn script calls them; C is
// what a write returns, which the script ignores.
type Writer[C any] interface {
	Append(name string, points []float64) (C, error)
	Delete(name string) bool
	Update(name string, values []float64) (C, error)
	Insert(name string, values []float64) (C, error)
}

// Churn is the seeded churn script: random appends, deletes, updates and
// inserts of length-N random walks, drawn from Rand (whose seed the test
// prints), with Live kept in step.
type Churn[C any] struct {
	N     int
	Rand  *rand.Rand
	Live  Live
	Fresh int // names handed to inserts so far
}

// Run applies steps writes to w. Of ten draws, six append 1 to 5 points,
// one deletes (while more than 24 series are stored), two overwrite the
// series with a fresh walk, and the last inserts a new one, named
// N<length>-<count>.
func (c *Churn[C]) Run(t testing.TB, w Writer[C], steps int) {
	t.Helper()
	rng, n := c.Rand, c.N
	for step := 0; step < steps; step++ {
		names, _ := c.Live.Sorted()
		name := names[rng.Intn(len(names))]
		switch op := rng.Intn(10); {
		case op < 6:
			pts := make([]float64, 1+rng.Intn(5))
			last := c.Live[name][n-1]
			for i := range pts {
				last += rng.Float64()*8 - 4
				pts[i] = last
			}
			if _, err := w.Append(name, pts); err != nil {
				t.Fatalf("append %s: %v", name, err)
			}
			window := append(c.Live[name], pts...)
			c.Live[name] = append([]float64(nil), window[len(window)-n:]...)
		case op < 7 && len(names) > 24:
			if !w.Delete(name) {
				t.Fatalf("delete %s: not stored", name)
			}
			delete(c.Live, name)
		case op < 9:
			vals := dataset.RandomWalk(rng, n)
			if _, err := w.Update(name, vals); err != nil {
				t.Fatalf("update %s: %v", name, err)
			}
			c.Live[name] = vals
		default:
			c.Fresh++
			fresh := fmt.Sprintf("N%d-%04d", n, c.Fresh)
			vals := dataset.RandomWalk(rng, n)
			if _, err := w.Insert(fresh, vals); err != nil {
				t.Fatalf("insert %s: %v", fresh, err)
			}
			c.Live[fresh] = vals
		}
	}
}
