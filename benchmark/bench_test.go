package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func TestOpListIsAFunctionOfTheSeed(t *testing.T) {
	for _, s := range specs {
		s = s.scaled(100)
		a, b, c := generate(s, 7), generate(s, 7), generate(s, 8)
		if hashOps(a.reads) != hashOps(b.reads) {
			t.Errorf("%s: same seed gave different op lists", s.name)
		}
		if hashOps(a.reads) == hashOps(c.reads) {
			t.Errorf("%s: different seeds gave the same op list", s.name)
		}
		for i := range a.data.values {
			for j := range a.data.values[i] {
				if a.data.values[i][j] != b.data.values[i][j] {
					t.Fatalf("%s: same seed gave different series", s.name)
				}
			}
		}
	}
}

func TestEstimators(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {1, 1}, {100, 10}} {
		if got := nearestRank(ten, c.p); got != c.want {
			t.Errorf("nearest-rank p%g of 1..10: got %g want %g", c.p, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if got := nearestRank(hundred, 95); got != 95 {
		t.Errorf("nearest-rank p95 of 1..100: got %g want 95", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10: got %g, %g want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	if q1, q3 := quartiles([]float64{8, 1, 4, 2}); q1 != 1.25 || q3 != 7 {
		t.Errorf("quartiles of 1,2,4,8: got %g, %g want 1.25, 7", q1, q3)
	}
}

// Every reported value is the median round's figure on the machine's
// nominal speed: a round that ran on a machine twice as slow, with every
// time doubled, must report what the others do; a burst that lands on a
// different read in each round must survive into the percentiles; and a
// read that failed must neither count as answered nor as fast.
func TestReduceRoundsScalesByTheReferenceAndReportsTheMedianRound(t *testing.T) {
	const n = 40 // 2 warm-up reads, then 19 range and 19 NN reads
	in := &inputs{reads: make([]op, n)}
	for i := range in.reads {
		if in.reads[i].kind = opRange; i%2 == 1 {
			in.reads[i].kind = opNN
		}
	}
	m := &measured{}
	for r := 0; r < 5; r++ {
		slow := 1.0
		if r == 1 {
			slow = 2
		}
		rd := &round{wall: slow, reads: n - 2, speed: slow, latMS: make([]float64, n)}
		for i := range rd.latMS {
			rd.latMS[i] = slow
		}
		rd.latMS[2+2*r] = 100 * slow // a stall on a different range read each round
		m.rounds = append(m.rounds, rd)
	}
	m.rounds[3].latMS[5], m.rounds[3].reads = math.NaN(), n-3
	m.rounds[4].wall = 0.5
	out := reduceRounds(m, in, []float64{3, 1, 2})
	// On the nominal speed the rounds ran at 38, 38, 38, 37 and 76 reads/s.
	if e := out["query_qps"]; e.v != 38 || e.lo != 37 || e.hi != 76 {
		t.Errorf("query_qps: got %+v want the median round's 38, from 37 to 76", e)
	}
	if e := out["raw.query_qps"]; e.v != 38 || e.lo != 19 {
		t.Errorf("raw.query_qps: got %+v want 38, and 19 for the round on the slow machine", e)
	}
	if e := out["range_p95_ms"]; e.v != 100 || e.lo != 100 || e.hi != 100 {
		t.Errorf("range_p95_ms: got %+v, want the stall every round saw (100)", e)
	}
	if e := out["range_p50_ms"]; e.v != 1 || e.hi != 1 || e.each != 19 {
		t.Errorf("range_p50_ms: got %+v, want 1 in every round over 19 samples", e)
	}
	if e := out["raw.range_p50_ms"]; e.v != 1 || e.hi != 2 {
		t.Errorf("raw.range_p50_ms: got %+v, want 1 with 2 for the round on the slow machine", e)
	}
	if e := out["nn_p95_ms"]; e.v != 1 || e.each != 19 {
		t.Errorf("nn_p95_ms: got %+v, want 1", e)
	}
	if got := out["reference.sample_ms"].hi; got != 2*refNominalMS {
		t.Errorf("reference.sample_ms: slowest round got %g want %g", got, 2*refNominalMS)
	}
	if got := out["setup_s"].v; got != 2 {
		t.Errorf("setup_s: got %g want the median, 2", got)
	}
	if got := speedOf([]float64{refNominalMS, 3 * refNominalMS}); got != 2 {
		t.Errorf("speedOf: got %g want the mean over the nominal, 2", got)
	}
}

// The reference does the same work in every sample and in every run.
func TestReferenceIsFixedWork(t *testing.T) {
	a, err := newReference()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newReference()
	for i := 0; i < 3; i++ {
		a.sample()
		b.sample()
	}
	if a.sink != b.sink || a.next != b.next || a.sink == 0 {
		t.Errorf("two references diverged or did nothing: %g at %d, %g at %d", a.sink, a.next, b.sink, b.next)
	}
}

// Four series of length 4 whose normal forms, distances and 2-point
// circular moving averages are worked out by hand:
//
//	a = 1 2 3 4   nf = (-3 -1 1 3)/√5
//	b = 2 4 6 8   nf = nf(a)              d(a,b) = 0
//	c = 4 3 2 1   nf = -nf(a)             d(a,c) = 2·|nf(a)| = 4
//	d = 1 1 2 2   nf = (-1 -1 1 1)        d(a,d)² = 8 − 16/√5
//
// and under mavg(2): nf(a) → (0 -2 0 2)/√5, nf(d) → (0 -1 0 1), so
// d² = 2·(1 − 2/√5)².
func TestOracleAgainstHandComputedCase(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	values := [][]float64{{1, 2, 3, 4}, {2, 4, 6, 8}, {4, 3, 2, 1}, {1, 1, 2, 2}}
	orc := newOracle(names, values)
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }

	all := orc.distances(values[0], 0)
	dad := math.Sqrt(8 - 16/math.Sqrt(5))
	want := []hit{{"a", 0}, {"b", 0}, {"d", dad}, {"c", 4}}
	for i, w := range want {
		if all[i].name != w.name || !near(all[i].dist, w.dist) {
			t.Errorf("rank %d: got %s at %.15g, want %s at %.15g", i, all[i].name, all[i].dist, w.name, w.dist)
		}
	}
	smoothed := orc.distances(values[0], 2)
	if w := math.Sqrt2 * (1 - 2/math.Sqrt(5)); smoothed[2].name != "d" || !near(smoothed[2].dist, w) {
		t.Errorf("under mavg(2): got %s at %.15g, want d at %.15g", smoothed[2].name, smoothed[2].dist, w)
	}

	rng := &op{kind: opRange, eps: 1}
	if why := orc.check(rng, values[0], []hit{{"a", 0}, {"b", 0}, {"d", dad}}); why != "" {
		t.Errorf("right range answer rejected: %s", why)
	}
	if why := orc.check(rng, values[0], []hit{{"a", 0}, {"b", 0}}); why == "" {
		t.Error("range answer missing d accepted")
	}
	if why := orc.check(rng, values[0], []hit{{"a", 0}, {"b", 0}, {"d", dad}, {"c", 4}}); why == "" {
		t.Error("range answer with c beyond eps accepted")
	}
	nn := &op{kind: opNN, k: 3}
	if why := orc.check(nn, values[0], []hit{{"b", 0}, {"a", 0}, {"d", dad}}); why != "" {
		t.Errorf("nn answer with a tie swapped rejected: %s", why)
	}
	if why := orc.check(nn, values[0], []hit{{"a", 0}, {"b", 0}, {"c", 4}}); why == "" {
		t.Error("nn answer with the wrong third neighbour accepted")
	}
	if why := invariants(nn, []hit{{"a", 0}, {"a", 0}, {"d", dad}}, 4); why == "" {
		t.Error("duplicate name passed the invariants")
	}
	if why := invariants(rng, []hit{{"a", 0}, {"c", 4}}, 4); why == "" {
		t.Error("range answer beyond eps passed the invariants")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []spanRec{
		{Name: "parent", Parent: -1, Start: 0, End: 100},
		{Name: "first", Parent: 0, Start: 10, End: 30},
		{Name: "overlapping", Parent: 0, Start: 20, End: 50},
		{Name: "overrunning", Parent: 0, Start: 90, End: 120},
		{Name: "grandchild", Parent: 1, Start: 12, End: 20},
		{Name: "outside", Parent: 0, Start: 130, End: 140},
	}
	// Children cover [10,50] and [90,100] of the parent: 50 of its 100.
	want := []int64{50, 12, 30, 30, 8, 10}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s: got %d want %d", spans[i].Name, got, want[i])
		}
	}
}

// BENCHMARK.json and the program must name the same workloads and
// metrics, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths: got %v want [benchmark]", file.Paths)
	}
	okName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(file.Workloads) != len(specs) {
		t.Fatalf("workloads: file has %d, program has %d", len(file.Workloads), len(specs))
	}
	for i, s := range specs {
		if w := file.Workloads[i]; w.Name != s.name || w.Why != s.why {
			t.Errorf("workload %d: file has %q (%q), program has %q (%q)", i, w.Name, w.Why, s.name, s.why)
		}
		if !okName.MatchString(s.name) || len(s.why) > 200 {
			t.Errorf("workload %q: bad name, or why longer than 200 characters (%d)", s.name, len(s.why))
		}
	}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: file has %d metrics, program has %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: file has %+v, program has %s %s %s", kind, i, g, w.name, w.unit, w.better)
			}
			if !okName.MatchString(w.name) {
				t.Errorf("%s %q: bad name", kind, w.name)
			}
			if bounded && (g.Bound == nil || *g.Bound != w.bound || w.bound <= 0 || w.bound > 0.25) {
				t.Errorf("%s %q: bound in file and program (%g) differ, or lie outside (0, 0.25]", kind, w.name, w.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %q: per-layer metrics carry no bound", kind, w.name)
			}
		}
	}
	compare("end_to_end", file.EndToEnd, endToEnd, true)
	compare("per_layer", file.PerLayer, perLayer, false)
}

// The smoke path runs every in-process workload end to end at a hundredth
// of its size: generator, set-up, rounds, oracle, traced passes.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	defer runCleanups()
	for _, s := range specs {
		if s.child {
			continue
		}
		res, err := runOne(options{workload: s.name, seed: 3, seconds: 0.5, trace: true, out: out, scale: 100}, devnull)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", s.name, res.Correct, res.Attempted, res.Failed)
		}
		for _, def := range perLayer {
			if _, ok := res.Metrics[def.name]; !ok {
				t.Errorf("%s: traced run did not report %s", s.name, def.name)
			}
		}
		if res.Metrics["core.exec_us"].Value <= 0 || res.Metrics["core.candidates_per_op"].Value <= 0 {
			t.Errorf("%s: traced run saw no engine work: %+v", s.name, res.Metrics)
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+s.name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", s.name, err)
		}
	}
}
