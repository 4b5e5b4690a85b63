package main

import (
	"fmt"
	"math"
	"sort"
)

// The oracle is the harness's own reference: normal form, circular moving
// average and Euclidean distance written out in the time domain, O(n·L)
// per query over the generated data. It shares no code with the program,
// so a wrong answer from any layer — index, kernels, cache, wire — shows
// as a mismatch.

// distTol absorbs the rounding gap between the program's frequency-domain
// distances and the oracle's time-domain ones.
const distTol = 1e-9

// normalForm returns (v - mean) / std; a constant series maps to zeros.
func normalForm(v []float64) []float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	mean := sum / float64(len(v))
	var ss float64
	for _, x := range v {
		ss += (x - mean) * (x - mean)
	}
	std := math.Sqrt(ss / float64(len(v)))
	out := make([]float64, len(v))
	if std == 0 {
		return out
	}
	for i, x := range v {
		out[i] = (x - mean) / std
	}
	return out
}

// mavgCircular is the w-point moving average with wrap-around, the
// time-domain reading of the paper's T_mavg: out[t] averages v[t-w+1..t]
// taken modulo the length.
func mavgCircular(v []float64, w int) []float64 {
	n := len(v)
	out := make([]float64, n)
	for t := 0; t < n; t++ {
		var sum float64
		for j := 0; j < w; j++ {
			sum += v[((t-j)%n+n)%n]
		}
		out[t] = sum / float64(w)
	}
	return out
}

func euclid(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// hit is one answer: a series and its distance to the query.
type hit struct {
	name string
	dist float64
}

// oracle answers queries over a snapshot of series values by brute force.
// Normal forms (and their moving averages, per window) are computed once
// and reused across checks.
type oracle struct {
	names []string
	nf    [][]float64
	mavg  map[int][][]float64
}

func newOracle(names []string, values [][]float64) *oracle {
	o := &oracle{names: names, nf: make([][]float64, len(values)), mavg: map[int][][]float64{}}
	for i, v := range values {
		o.nf[i] = normalForm(v)
	}
	return o
}

// side returns the stored side under the op's transformation.
func (o *oracle) side(w int) [][]float64 {
	if w == 0 {
		return o.nf
	}
	if m, ok := o.mavg[w]; ok {
		return m
	}
	m := make([][]float64, len(o.nf))
	for i, v := range o.nf {
		m[i] = mavgCircular(v, w)
	}
	o.mavg[w] = m
	return m
}

// distances returns every stored series' distance to the query, the
// transformation applied to both sides.
func (o *oracle) distances(query []float64, w int) []hit {
	q := normalForm(query)
	if w > 0 {
		q = mavgCircular(q, w)
	}
	side := o.side(w)
	out := make([]hit, len(side))
	for i, s := range side {
		out[i] = hit{name: o.names[i], dist: euclid(s, q)}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].dist != out[b].dist {
			return out[a].dist < out[b].dist
		}
		return out[a].name < out[b].name
	})
	return out
}

// check compares a program answer with the oracle's for one read op and
// returns a description of the first disagreement, or "".
func (o *oracle) check(op *op, query []float64, got []hit) string {
	all := o.distances(query, op.mavg)
	want := map[string]float64{}
	switch op.kind {
	case opRange:
		for _, h := range all {
			if h.dist > op.eps+distTol {
				break
			}
			want[h.name] = h.dist
		}
		for _, g := range got {
			d, ok := want[g.name]
			if !ok {
				return fmt.Sprintf("range returned %s (d=%g), oracle has it beyond eps %g", g.name, g.dist, op.eps)
			}
			if math.Abs(d-g.dist) > distTol {
				return fmt.Sprintf("range distance of %s: got %.12g want %.12g", g.name, g.dist, d)
			}
			delete(want, g.name)
		}
		for name, d := range want {
			if d <= op.eps-distTol {
				return fmt.Sprintf("range missed %s at d=%.12g <= eps %g", name, d, op.eps)
			}
		}
	case opNN:
		k := op.k
		if k > len(all) {
			k = len(all)
		}
		if len(got) != k {
			return fmt.Sprintf("nn returned %d results, want %d", len(got), k)
		}
		for i, g := range got {
			if math.Abs(all[i].dist-g.dist) > distTol {
				return fmt.Sprintf("nn rank %d distance: got %.12g want %.12g", i, g.dist, all[i].dist)
			}
		}
		// Names must match except where a tie lets ranks swap.
		for i, g := range got {
			if g.name == all[i].name {
				continue
			}
			ok := false
			for _, h := range all {
				if h.name == g.name {
					ok = math.Abs(h.dist-g.dist) <= distTol
					break
				}
			}
			if !ok {
				return fmt.Sprintf("nn rank %d: got %s want %s", i, g.name, all[i].name)
			}
		}
	}
	return ""
}

// invariants checks what must hold of any answer even while appends move
// the store: no duplicate names, range distances within eps, NN answers
// ascending with exactly k results.
func invariants(op *op, got []hit, stored int) string {
	seen := map[string]bool{}
	for i, g := range got {
		if seen[g.name] {
			return "duplicate " + g.name
		}
		seen[g.name] = true
		if op.kind == opRange && g.dist > op.eps+distTol {
			return fmt.Sprintf("range answer %s at %g beyond eps %g", g.name, g.dist, op.eps)
		}
		if i > 0 && g.dist < got[i-1].dist-distTol {
			return "answers not ascending by distance"
		}
	}
	if op.kind == opNN {
		k := op.k
		if k > stored {
			k = stored
		}
		if len(got) != k {
			return fmt.Sprintf("nn returned %d results, want %d", len(got), k)
		}
	}
	return ""
}
