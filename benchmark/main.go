// Command benchmark is the repository's one benchmark: it generates a
// workload from a seed, sets the store up, drives it, checks answers
// against its own brute-force oracle and prints every metric. See
// README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	tsqd     string
	scale    int // 1, or the divisor of a smoke run
}

func main() {
	var (
		o      options
		trace  = flag.Int("trace", 0, "1: also run the traced passes and report the per-layer metrics")
		list   = flag.Bool("list", false, "print workload and metric names and exit")
		smoke  = flag.Bool("smoke", false, "run the in-process workloads at 1/100 size, traced, and exit")
		repeat = flag.Int("repeat", 0, "noise mode: run the workload N times with seeds seed..seed+N-1 and tabulate the spread")
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run (see -list)")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the measured phase runs")
	flag.StringVar(&o.out, "out", "benchmark/out", "directory for span files and scratch space")
	flag.StringVar(&o.tsqd, "tsqd", "", "path of the tsqd binary (child workloads)")
	flag.Parse()
	o.trace, o.scale = *trace != 0, 1

	runtime.GOMAXPROCS(procs)
	cleanupOnSignal()
	code := 0
	switch {
	case *list:
		printList()
	case *smoke:
		code = runSmoke(o)
	case *repeat > 0:
		code = runRepeat(o, *repeat)
	default:
		res, err := runOne(o, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		} else {
			res.printJSON()
			if !res.Correct {
				code = 1
			}
		}
	}
	runCleanups()
	os.Exit(code)
}

func printList() {
	for _, s := range specs {
		fmt.Printf("workload %s\t%s\n", s.name, s.why)
	}
	for _, m := range endToEnd {
		fmt.Printf("end_to_end %s\t%s\t%s\t%g\t%s\n", m.name, m.unit, m.better, m.bound, m.note)
	}
	for _, m := range perLayer {
		fmt.Printf("per_layer %s\t%s\t%s\t%s\n", m.name, m.unit, m.better, m.note)
	}
}

// value is one metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *result) printJSON() {
	b, _ := json.Marshal(r)
	fmt.Println(string(b))
}

// runOne performs one run of one workload and writes the human-readable
// report to w.
func runOne(o options, w *os.File) (*result, error) {
	s, ok := specByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (see -list)", o.workload)
	}
	s = s.scaled(o.scale)
	if s.child && o.tsqd == "" {
		return nil, fmt.Errorf("workload %s needs -tsqd <path of the tsqd binary>", s.name)
	}
	dir, err := scratch(o.out)
	if err != nil {
		return nil, err
	}
	in := generate(s, o.seed)
	fmt.Fprintf(w, "# %s seed=%d store=%dx%d shards=%d reads/round=%d ops-hash=%s\n",
		s.name, o.seed, s.count, s.length, s.shards, s.readsPerRound, hashOps(in.reads))
	p, err := prepare(s, in, dir, o.tsqd)
	if err != nil {
		return nil, err
	}
	if s.disk {
		fmt.Fprintf(w, "# disk: snapshot %d B over %d user B; pool %d pages x %d B per relation\n",
			p.snapshotBytes, p.userBytes, p.cachePages, pageSize)
		// The store is adopted from the snapshot file and every read is
		// by name, so the generated values would only sit in the resident
		// set peak_rss_mb reports. They come back for the oracle.
		in.data.values, p.batch = nil, nil
	}
	st, setupTimes, err := setUpRepeatedly(s, in, p)
	if err != nil {
		return nil, err
	}
	ref, err := newReference()
	if err != nil {
		st.close()
		return nil, err
	}
	// A traced run spends part of its time on an untraced phase — the
	// source of the open-loop append numbers — and then replays a fixed
	// half of the read list through the traced passes.
	seconds, minRounds := o.seconds, 3
	if o.trace {
		seconds = o.seconds * 0.4
	}
	if o.scale > 1 {
		minRounds = 2
	}
	m, err := measure(st, s, in, ref, seconds, minRounds)
	if s.disk {
		in.data = genData(s, o.seed)
	}
	if err == nil {
		m.check(st, s, in)
	}
	if h, ok := st.(*httpStore); ok && err == nil {
		if s.monitors > 0 {
			if m.attempted++; h.events.Load() == 0 {
				m.failed++
				m.mismatches = append(m.mismatches, "no monitor event reached a subscriber")
			}
		}
		if body, err := h.reads.get("/stats"); err == nil {
			var stats struct {
				Hits   int64 `json:"cache_hits"`
				Misses int64 `json:"cache_misses"`
			}
			if json.Unmarshal(body, &stats) == nil && stats.Hits+stats.Misses > 0 {
				fmt.Fprintf(w, "# result cache over the run: %d hits, %d misses (%.1f%% hits); %d SSE events drained\n",
					stats.Hits, stats.Misses, 100*float64(stats.Hits)/float64(stats.Hits+stats.Misses), h.events.Load())
			}
		}
	}
	st.close()
	if err != nil {
		return nil, err
	}

	e2e := reduceRounds(m, in, setupTimes)
	e2e["snapshot_bytes_per_user_byte"] = estimate{v: float64(p.snapshotBytes) / float64(p.userBytes)}
	rep := report{w: w, workload: s.name}
	for _, def := range endToEnd {
		rep.line(def, e2e[def.name])
	}
	res := &result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]value{}}
	for _, why := range m.mismatches {
		fmt.Fprintln(w, "# MISMATCH", why)
	}
	if !o.trace {
		// The ungated figures of the rounds are printed for the reader; the
		// result line carries the end-to-end metrics only.
		for _, def := range perLayer {
			if e, ok := e2e[def.name]; ok && e.rounds > 0 {
				rep.line(def, e)
			}
		}
		for _, def := range endToEnd {
			res.Metrics[def.name] = value{e2e[def.name].v, def.unit}
		}
		return res, nil
	}

	spanFile := filepath.Join(o.out, "trace-"+s.name+".json")
	layers, err := traced(s, in, p, spanFile)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "# traced %d reads per pass; spans in %s\n", s.readsPerRound/2, spanFile)
	layers["persist.snapshot_bytes"] = float64(p.snapshotBytes)
	for _, def := range perLayer {
		// The tail percentiles and the open-loop append numbers come from
		// the untraced rounds, everything else from the traced passes.
		e, ok := e2e[def.name]
		if !ok {
			e = estimate{v: layers[def.name]}
		}
		rep.line(def, e)
		res.Metrics[def.name] = value{e.v, def.unit}
	}
	return res, nil
}

// estimate is a reported value with the per-round spread beside it.
type estimate struct {
	v            float64
	lo, hi       float64
	rounds, each int // rounds behind the value; samples per round
}

// reduceRounds turns the rounds and the set-up times into reported values.
//
// Every round replays the same reads, so a figure computed inside one
// round — its answered reads per second of wall time, a kind's
// nearest-rank percentile over that round's timed reads — is comparable
// with the same figure of every other round once it is put on the
// machine's nominal speed: times are divided by the round's speed (how
// slow the reference ran between the round's reads), rates multiplied by
// it. The reported value is the median round's, with everything the
// program did in that round (GC, rebuilds, eviction, collisions with the
// append stream) still in it; the slowest and the fastest round are
// printed beside it. The same figures as the clock read them, unscaled,
// are reported under "raw." names.
func reduceRounds(m *measured, in *inputs, setupTimes []float64) map[string]estimate {
	out := map[string]estimate{}
	// perRound computes one figure inside each round, from k samples (a
	// round with none is left out), and reports the median round.
	perRound := func(per func(r *round) (v float64, k int)) estimate {
		var (
			vals []float64
			e    estimate
		)
		for _, r := range m.rounds {
			if v, k := per(r); k > 0 {
				vals = append(vals, v)
				e.each = k
			}
		}
		e.v, e.rounds = median(vals), len(vals)
		e.lo, e.hi = minMax(vals)
		return e
	}
	// pct is a percentile of some of a round's latencies, on the nominal
	// speed or (raw) as measured.
	pct := func(pick func(r *round) []float64, p float64, raw bool) func(r *round) (float64, int) {
		return func(r *round) (float64, int) {
			sample := pick(r)
			v := nearestRank(sample, p)
			if !raw {
				v /= r.speed
			}
			return v, len(sample)
		}
	}
	// ofKind is a round's timed, answered reads of one kind.
	ofKind := func(kind opKind) func(r *round) []float64 {
		return func(r *round) []float64 {
			var s []float64
			for i := warmReads(len(r.latMS)); i < len(r.latMS); i++ {
				if in.reads[i].kind == kind && !math.IsNaN(r.latMS[i]) {
					s = append(s, r.latMS[i])
				}
			}
			return s
		}
	}
	appends := func(r *round) []float64 { return r.appendMS }
	out["query_qps"] = perRound(func(r *round) (float64, int) { return float64(r.reads) / r.wall * r.speed, r.reads })
	out["raw.query_qps"] = perRound(func(r *round) (float64, int) { return float64(r.reads) / r.wall, r.reads })
	out["range_p50_ms"] = perRound(pct(ofKind(opRange), 50, false))
	out["raw.range_p50_ms"] = perRound(pct(ofKind(opRange), 50, true))
	out["range_p95_ms"] = perRound(pct(ofKind(opRange), 95, false))
	out["nn_p50_ms"] = perRound(pct(ofKind(opNN), 50, false))
	out["raw.nn_p50_ms"] = perRound(pct(ofKind(opNN), 50, true))
	out["nn_p95_ms"] = perRound(pct(ofKind(opNN), 95, false))
	// Appends run on a schedule, not a replayed list; theirs are the
	// percentiles of what each round happened to send.
	out["append_p50_ms"] = perRound(pct(appends, 50, false))
	out["append_p95_ms"] = perRound(pct(appends, 95, false))
	out["loadgen.append_lateness_p95_ms"] = perRound(pct(func(r *round) []float64 { return r.lateMS }, 95, true))
	out["reference.sample_ms"] = perRound(func(r *round) (float64, int) { return r.speed * refNominalMS, 1 })

	e := estimate{v: median(setupTimes), rounds: len(setupTimes), each: 1}
	e.lo, e.hi = minMax(setupTimes)
	out["setup_s"] = e
	out["peak_rss_mb"] = estimate{v: m.peakRSSMB}
	return out
}

// report prints "workload/metric value unit" lines, with the per-round
// spread beside each value so noise is visible and not hidden.
type report struct {
	w        *os.File
	workload string
}

func (r report) line(def metricDef, e estimate) {
	fmt.Fprintf(r.w, "%s/%s %.6g %s", r.workload, def.name, e.v, def.unit)
	if e.rounds > 0 {
		fmt.Fprintf(r.w, "\t(median of %d rounds from %.6g to %.6g, %d samples each)", e.rounds, e.lo, e.hi, e.each)
	}
	fmt.Fprintln(r.w)
}

// runSmoke runs the in-process workloads at a hundredth of their size,
// traced: a seconds-long end-to-end check of generator, hosts, oracle and
// tracer.
func runSmoke(o options) int {
	o.scale, o.trace, o.seconds = 100, true, 1
	for _, s := range specs {
		if s.child {
			continue
		}
		o.workload = s.name
		res, err := runOne(o, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if !res.Correct {
			return 1
		}
	}
	return 0
}

// runRepeat is the noise mode: it re-executes this binary n times on one
// workload, a fresh process and seed per run, and tabulates each
// end-to-end metric's minimum, median, maximum, and the spread the driver
// judges — the distance between the quartiles as a share of the median.
func runRepeat(o options, n int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	byMetric := map[string][]float64{}
	for i := 0; i < n; i++ {
		args := []string{"-workload", o.workload, "-seed", fmt.Sprint(o.seed + int64(i)),
			"-seconds", fmt.Sprint(o.seconds), "-out", o.out, "-tsqd", o.tsqd}
		if o.trace {
			args = append(args, "-trace", "1")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		outBytes, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: run %d: %v\n", i, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: run %d: %v\n", i, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "run %d/%d seed %d: %s\n", i+1, n, o.seed+int64(i), lines[len(lines)-1])
		for name, v := range res.Metrics {
			byMetric[name] = append(byMetric[name], v.Value)
		}
	}
	names := make([]string, 0, len(byMetric))
	for name := range byMetric {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("| workload | metric | min | median | max | (max-min)/median | IQR/median |\n|---|---|---|---|---|---|---|\n")
	for _, name := range names {
		v := byMetric[name]
		lo, hi := minMax(v)
		mid := median(v)
		q1, q3 := quartiles(v)
		rel := func(x float64) string {
			if mid == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f%%", 100*x/mid)
		}
		fmt.Printf("| %s | %s | %.5g | %.5g | %.5g | %s | %s |\n", o.workload, name, lo, mid, hi, rel(hi-lo), rel(q3-q1))
	}
	return 0
}
