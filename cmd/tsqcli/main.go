// Command tsqcli executes statements of the tsq query language, either
// against a CSV loaded into an embedded engine or — with -remote —
// against a running tsqd server, from -query or interactively from
// standard input (one statement per line). Subcommands against a remote
// server: `append` slides series windows forward, `watch` follows a
// standing query's enter/leave events, `stats` prints the server's
// counters (`stats -plans` adds the recent executed-plan ring with
// estimated-vs-actual cost and per-kind error percentiles, `stats
// -slow` the slow-query log with trace spans), `metrics` scrapes
// and validates the /metrics Prometheus exposition, `traces` fetches
// retained execution traces from the server's flight recorder (by
// request ID, kind, strategy, or outcome — span trees included even
// when TRACE was never requested), and `top` renders a refreshing
// console dashboard (per-kind qps and latency percentiles, cache hit
// rate, planner drift, approximate-tier traffic, shard imbalance,
// streaming health; `top -once` prints one snapshot and exits). A TRACE
// statement prefix prints the execution's span tree with per-shard
// timings. -progressive streams RANGE/NN statements in two stages: the
// bounded approximate answer first, then the exact refinement.
//
// Usage:
//
//	tsqgen -count 500 -length 128 > walks.csv
//	tsqcli -data walks.csv -query "RANGE SERIES 'W0007' EPS 2 TRANSFORM mavg(20) BOTH"
//	tsqcli -data walks.csv        # interactive: type statements, blank line or EOF quits
//
//	tsqd -data walks.csv &
//	tsqcli -remote http://localhost:8080 -query "NN SERIES 'W0007' K 5"
//	tsqcli -remote http://localhost:8080 -data walks.csv   # upload CSV, then query
//
//	# Streaming:
//	tsqcli -remote http://localhost:8080 append W0007 101.5 102 103.25
//	tsqcli -remote http://localhost:8080 append -ticks ticks.csv
//	tsqcli -remote http://localhost:8080 append -ticks ticks.csv -rate 500   # paced soak replay
//	tsqcli -remote http://localhost:8080 watch -kind range -series W0007 -eps 2 -transform "mavg(20)"
//	tsqcli -remote http://localhost:8080 watch -kind nn -series W0007 -k 5
//	tsqcli -remote http://localhost:8080 stats -plans
//	tsqcli -remote http://localhost:8080 stats -slow
//	tsqcli -remote http://localhost:8080 metrics
//	tsqcli -remote http://localhost:8080 traces -outcome error
//	tsqcli -remote http://localhost:8080 traces -id 6fe2a1b3-1x
//	tsqcli -remote http://localhost:8080 top
//	tsqcli -remote http://localhost:8080 top -once
//	tsqcli -data walks.csv -query "TRACE RANGE SERIES 'W0007' EPS 2 TRANSFORM mavg(20)"
//	tsqcli -data walks.csv -query "NN SERIES 'W0007' K 5 APPROX 0.1"
//	tsqcli -remote http://localhost:8080 -progressive -query "NN SERIES 'W0007' K 5"
//
// The query language:
//
//	RANGE  SERIES 'name' EPS e [TRANSFORM t] [BOTH] [USING AUTO|INDEX|SCAN|SCANTIME] [MEAN [lo,hi]] [STD [lo,hi]] [APPROX d | CONFIDENCE c]
//	EXPLAIN RANGE ...   (any statement; prints the plan + estimated vs actual cost)
//	RANGE  VALUES (v1, v2, ...) EPS e ...
//	NN     SERIES 'name' K k [TRANSFORM t] [USING ...] [APPROX d | CONFIDENCE c]
//	SELFJOIN EPS e [TRANSFORM t] [METHOD a|b|c|d | USING ...]
//	JOIN   EPS e [LEFT t] [RIGHT t] [USING ...]
//
// with transformations identity(), mavg(l), wmavg(w...), reverse(),
// scale(c), shift(c), warp(m), composed left-to-right with '|'.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"time"

	tsq "repro"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	var (
		dataPath = flag.String("data", "", "CSV file of series: name,v1,v2,...")
		remote   = flag.String("remote", "", "base URL of a tsqd server (e.g. http://localhost:8080); queries run server-side")
		queryStr = flag.String("query", "", "single statement to execute (default: interactive)")
		k        = flag.Int("k", 2, "DFT coefficients kept in the index (embedded mode)")
		space    = flag.String("space", "polar", "feature space: polar or rect (embedded mode)")
		maxRows  = flag.Int("maxrows", 20, "result rows to print")
		prog     = flag.Bool("progressive", false, "stream RANGE/NN statements in two stages: bounded approximate answer first, then the exact refinement")
	)
	flag.Parse()

	if args := flag.Args(); len(args) > 0 {
		var err error
		switch args[0] {
		case "append":
			err = runAppend(*remote, args[1:])
		case "watch":
			err = runWatch(*remote, args[1:])
		case "stats":
			err = runStats(*remote, args[1:])
		case "metrics":
			err = runMetrics(*remote)
		case "traces":
			err = runTraces(*remote, args[1:])
		case "top":
			err = runTop(*remote, args[1:])
		default:
			err = fmt.Errorf("unknown subcommand %q (want append, watch, stats, metrics, traces, or top)", args[0])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tsqcli:", err)
			os.Exit(1)
		}
		return
	}

	if *dataPath == "" && *remote == "" {
		fmt.Fprintln(os.Stderr, "tsqcli: -data or -remote is required")
		os.Exit(2)
	}
	var err error
	if *remote != "" {
		err = runRemote(*remote, *dataPath, *queryStr, *maxRows, *prog)
	} else {
		err = runEmbedded(*dataPath, *queryStr, *k, *space, *maxRows, *prog)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsqcli:", err)
		os.Exit(1)
	}
}

// runAppend sends appends to a tsqd server: either one series with
// inline values, or a whole tick stream from a CSV file (replayed in
// order, batched per series per step run).
func runAppend(remote string, args []string) error {
	if remote == "" {
		return fmt.Errorf("append requires -remote")
	}
	fs := flag.NewFlagSet("append", flag.ContinueOnError)
	ticksPath := fs.String("ticks", "", "CSV tick stream to replay: name,step,value")
	rate := fs.Float64("rate", 0, "pace -ticks replay to this many ticks/sec (0 = full speed) for realistic soak demos")
	if err := fs.Parse(args); err != nil {
		return err
	}
	client := server.NewClient(remote)
	if *ticksPath != "" {
		if fs.NArg() > 0 {
			return fmt.Errorf("append takes -ticks or inline values, not both")
		}
		if *rate < 0 {
			return fmt.Errorf("-rate must be >= 0, got %g", *rate)
		}
		ticks, err := tsq.ReadTicksCSVFile(*ticksPath)
		if err != nil {
			return err
		}
		// Coalesce consecutive ticks of the same series into one request;
		// arrival order across series is preserved. With -rate, each batch
		// waits for its first tick's scheduled arrival time, so the replay
		// tracks the target throughput without drifting (sleep error does
		// not accumulate: the schedule is absolute, not relative).
		start := time.Now()
		sent, requests := 0, 0
		for i := 0; i < len(ticks); {
			j := i
			var batch []float64
			for ; j < len(ticks) && ticks[j].Name == ticks[i].Name; j++ {
				batch = append(batch, ticks[j].Value)
			}
			if *rate > 0 {
				due := start.Add(time.Duration(float64(sent) / *rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
			}
			if err := client.Append(ticks[i].Name, batch); err != nil {
				return fmt.Errorf("after %d ticks: %w", sent, err)
			}
			sent += len(batch)
			requests++
			i = j
		}
		elapsed := time.Since(start)
		if *rate > 0 {
			fmt.Printf("appended %d ticks from %s (%d requests, %.1f ticks/sec over %s)\n",
				sent, *ticksPath, requests, float64(sent)/elapsed.Seconds(), elapsed.Round(time.Millisecond))
		} else {
			fmt.Printf("appended %d ticks from %s (%d requests)\n", sent, *ticksPath, requests)
		}
		return nil
	}
	rest := fs.Args()
	if len(rest) < 2 {
		return fmt.Errorf("usage: append NAME v1 [v2 ...]  |  append -ticks FILE")
	}
	name := rest[0]
	values := make([]float64, len(rest)-1)
	for i, s := range rest[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("bad value %q: %w", s, err)
		}
		values[i] = v
	}
	if err := client.Append(name, values); err != nil {
		return err
	}
	fmt.Printf("appended %d point(s) to %s\n", len(values), name)
	return nil
}

// runStats prints a tsqd server's cumulative counters; -plans adds the
// engine's recent executed-plan ring with estimated-vs-actual cost plus
// the per-kind cost-error percentile history (one p50/p95 checkpoint per
// 16 executed plans), so planner drift and mispredictions — and whether
// they are getting better or worse over time — are visible from the
// command line.
func runStats(remote string, args []string) error {
	if remote == "" {
		return fmt.Errorf("stats requires -remote")
	}
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	plans := fs.Bool("plans", false, "print the recent executed plans (est vs actual) with per-kind cost-error percentiles")
	slow := fs.Bool("slow", false, "print the server's slow-query log with trace spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	client := server.NewClient(remote)
	var (
		st  *server.StatsResponse
		err error
	)
	switch {
	case *plans:
		st, err = client.StatsWithPlans()
	case *slow:
		st, err = client.StatsWithSlow()
	default:
		st, err = client.Stats()
	}
	if err != nil {
		return err
	}
	fmt.Printf("series %d (length %d, %d shard(s)), uptime %.0fs\n",
		st.Series, st.Length, st.Shards, st.UptimeSeconds)
	fmt.Printf("queries %d, writes %d, appends %d, monitors %d\n",
		st.Queries, st.Writes, st.Appends, st.Monitors)
	fmt.Printf("cache %d/%d entries, %d hits / %d misses\n",
		st.CacheLen, st.CacheCap, st.CacheHits, st.CacheMisses)
	fmt.Printf("cost: %d node accesses, %d pages, %d verified, %.1f ms\n",
		st.NodeAccesses, st.PageReads, st.Candidates, st.ElapsedUS/1000)
	if *plans {
		if len(st.Plans) == 0 {
			fmt.Println("no executed plans recorded yet")
			return nil
		}
		fmt.Printf("last %d executed plan(s):\n", len(st.Plans))
		for _, p := range st.Plans {
			method := ""
			if p.Method != "" {
				method = " method " + p.Method
			}
			forced := ""
			if p.Forced {
				forced = " (forced)"
			}
			drift := "-"
			if p.EstCandidates > 0 {
				drift = fmt.Sprintf("%.2fx", float64(p.ActualCandidates)/p.EstCandidates)
			}
			fmt.Printf("  #%-4d %-8s via %-8s%s%s  est %.1f cand (cost %.1f) -> actual %d cand, %d nodes, %d results, %.2f ms, drift %s\n",
				p.Seq, p.Kind, p.Strategy, method, forced,
				p.EstCandidates, p.EstCost, p.ActualCandidates, p.ActualNodeAccesses,
				p.Results, p.ElapsedUS/1000, drift)
		}
		printCostErrors(st.Plans)
		if len(st.Drift) > 0 {
			fmt.Println("cost-error drift over time (p50/p95 per 16-plan window, oldest first):")
			for _, d := range st.Drift {
				fmt.Printf("  %-8s thru #%-5d p50 %.2f  p95 %.2f  (n=%d)\n",
					d.Kind, d.Seq, d.P50, d.P95, d.Samples)
			}
		}
	}
	if *slow {
		if len(st.Slow) == 0 {
			fmt.Println("no slow queries recorded")
			return nil
		}
		fmt.Printf("slow-query log (%d entries, oldest first):\n", len(st.Slow))
		for _, q := range st.Slow {
			fmt.Printf("  %s  %.2f ms  %s\n", q.When.Format("15:04:05"), q.ElapsedUS/1000, q.Query)
			printSpanPayloads(q.Spans, 2)
		}
	}
	return nil
}

// runMetrics fetches a tsqd server's /metrics exposition, validates it
// with the strict parser, and prints it verbatim — so CI (and curl-less
// humans) can both scrape and syntax-check in one command.
func runMetrics(remote string) error {
	if remote == "" {
		return fmt.Errorf("metrics requires -remote")
	}
	text, err := server.NewClient(remote).Metrics()
	if err != nil {
		return err
	}
	samples, err := telemetry.ParseText(strings.NewReader(text))
	if err != nil {
		return fmt.Errorf("invalid exposition: %w", err)
	}
	fmt.Print(text)
	fmt.Fprintf(os.Stderr, "tsqcli: exposition OK, %d samples\n", len(samples))
	return nil
}

// printCostErrors summarizes the planner's estimate quality per query
// kind from the executed-plan ring: the p50/p95 of the absolute relative
// candidate-count error |actual - est| / max(est, 1).
func printCostErrors(plans []server.PlanRecordPayload) {
	byKind := make(map[string][]float64)
	for _, p := range plans {
		e := math.Abs(float64(p.ActualCandidates)-p.EstCandidates) / math.Max(p.EstCandidates, 1)
		byKind[p.Kind] = append(byKind[p.Kind], e)
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Println("planner cost error |actual-est|/max(est,1) per kind:")
	for _, k := range kinds {
		errs := byKind[k]
		sort.Float64s(errs)
		fmt.Printf("  %-8s p50 %.2f  p95 %.2f  (n=%d)\n",
			k, percentile(errs, 0.50), percentile(errs, 0.95), len(errs))
	}
}

// percentile returns the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// headNote annotates a search/scan span with what it resolved in the
// spectrum heads.
func headNote(span string, headResolved int) string {
	if span != "search" && span != "scan" {
		return ""
	}
	return fmt.Sprintf("  (%d candidates resolved in the head)", headResolved)
}

// printSpanPayloads renders a wire-format span tree, indented by depth.
func printSpanPayloads(spans []server.SpanPayload, depth int) {
	for _, sp := range spans {
		name := sp.Name
		if sp.Name == "shard" {
			name = fmt.Sprintf("shard %d", sp.Shard)
		}
		fmt.Printf("%*s%-12s %8.3f ms%s\n", 2*depth, "", name, sp.DurationUS/1000, headNote(sp.Name, sp.HeadResolved))
		printSpanPayloads(sp.Children, depth+1)
	}
}

// runWatch registers (or attaches to) a monitor and prints its events
// until interrupted.
func runWatch(remote string, args []string) error {
	if remote == "" {
		return fmt.Errorf("watch requires -remote")
	}
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	var (
		kind      = fs.String("kind", "range", "monitor kind: range or nn")
		series    = fs.String("series", "", "stored series to use as the query")
		eps       = fs.Float64("eps", 1, "range threshold (range monitors)")
		kNear     = fs.Int("k", 5, "neighbor count (nn monitors)")
		transform = fs.String("transform", "", "transformation pipeline, e.g. \"mavg(20)\"")
		both      = fs.Bool("both", false, "apply the transformation to the query side too")
		monitor   = fs.Int64("monitor", 0, "attach to an existing monitor ID instead of registering")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	client := server.NewClient(remote)
	id := *monitor
	if id == 0 {
		if *series == "" {
			return fmt.Errorf("watch needs -series (or -monitor to attach to an existing one)")
		}
		resp, err := client.CreateMonitor(server.MonitorRequest{
			Kind: *kind, Series: *series, Eps: *eps, K: *kNear,
			Transform: *transform, Both: *both,
		})
		if err != nil {
			return err
		}
		id = resp.ID
		fmt.Printf("monitor %d registered (%s), %d initial member(s)\n", id, *kind, len(resp.Members))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ws, err := client.Watch(ctx, id, -1)
	if err != nil {
		return err
	}
	defer ws.Close()
	for _, m := range ws.Members {
		fmt.Printf("  member %-10s D=%.4f\n", m.Name, m.Distance)
	}
	for ev := range ws.Events {
		if ev.Kind == "enter" {
			fmt.Printf("  enter  %-10s D=%.4f  (seq %d)\n", ev.Name, ev.Distance, ev.Seq)
		} else {
			fmt.Printf("  leave  %-10s           (seq %d)\n", ev.Name, ev.Seq)
		}
	}
	if err := ws.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}

// executor runs one query-language statement — embedded or remote.
type executor func(src string) (*tsq.Output, error)

// progressor runs one statement progressively, invoking emit per stage —
// embedded (DB.QueryProgressive) or remote (Client.QueryProgressive).
type progressor func(src string, emit func(tsq.ProgressiveStage) error) error

func runEmbedded(dataPath, queryStr string, k int, space string, maxRows int, progressive bool) error {
	batch, err := tsq.ReadCSVFile(dataPath)
	if err != nil {
		return err
	}

	sp, err := tsq.ParseSpace(space)
	if err != nil {
		return err
	}
	db, err := tsq.Open(tsq.Options{Length: len(batch[0].Values), K: k, Space: sp})
	if err != nil {
		return err
	}
	if err := db.InsertAll(batch); err != nil {
		return err
	}
	fmt.Printf("loaded %d series of length %d from %s (%s space, K=%d)\n",
		db.Len(), db.Length(), dataPath, space, k)
	run := func(src string) error { return execute(db.Query, src, maxRows) }
	if progressive {
		run = func(src string) error { return executeProgressive(db.QueryProgressive, src, maxRows) }
	}
	return loop(run, queryStr)
}

func runRemote(remote, dataPath, queryStr string, maxRows int, progressive bool) error {
	client := server.NewClient(remote)
	if dataPath != "" {
		batch, err := tsq.ReadCSVFile(dataPath)
		if err != nil {
			return err
		}
		total, err := client.InsertBatch(batch)
		if err != nil {
			return fmt.Errorf("uploading %s: %w", dataPath, err)
		}
		fmt.Printf("uploaded %d series from %s (server now holds %d)\n",
			len(batch), dataPath, total)
	}
	health, err := client.Health()
	if err != nil {
		return fmt.Errorf("connecting to %s: %w", remote, err)
	}
	fmt.Printf("connected to %s: %d series of length %d\n",
		remote, health.Series, health.Length)
	run := func(src string) error { return execute(client.QueryOutput, src, maxRows) }
	if progressive {
		prog := func(src string, emit func(tsq.ProgressiveStage) error) error {
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
			defer stop()
			return client.QueryProgressive(ctx, src, func(st server.ProgressiveStagePayload) error {
				return emit(tsq.ProgressiveStage{
					Phase:  st.Phase,
					Output: server.OutputFromResponse(&st.Result),
					Final:  st.Final,
				})
			})
		}
		run = func(src string) error { return executeProgressive(prog, src, maxRows) }
	}
	return loop(run, queryStr)
}

func loop(run func(src string) error, queryStr string) error {
	if queryStr != "" {
		return run(queryStr)
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("tsq> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.EqualFold(line, "quit") || strings.EqualFold(line, "exit") {
			break
		}
		if err := run(line); err != nil {
			fmt.Println("error:", err)
		}
		fmt.Print("tsq> ")
	}
	return sc.Err()
}

// printExplain renders an EXPLAIN plan: the planner's choice and
// reasoning, the Lemma 1 filter its index path runs at, the search
// rectangle, and estimated vs actual cost.
func printExplain(w io.Writer, e *tsq.ExplainInfo) {
	forced := ""
	if e.Forced {
		forced = " (forced)"
	}
	method := ""
	if e.Method != "" {
		method = fmt.Sprintf(" (Table 1 method %s)", e.Method)
	}
	fmt.Fprintf(w, "plan: %s via %s%s%s over %d series, %d shard(s)\n",
		e.Kind, e.Strategy, method, forced, e.Series, len(e.Shards))
	fmt.Fprintf(w, "  reason: %s\n", e.Reason)
	if e.Filter != "" {
		fmt.Fprintf(w, "  filter: %s\n", e.Filter)
	}
	if e.Transform != "" {
		fmt.Fprintf(w, "  transform: %s\n", e.Transform)
	}
	if len(e.RectLo) > 0 {
		fmt.Fprintf(w, "  rectangle: lo=%v hi=%v\n", e.RectLo, e.RectHi)
	}
	if e.EstIndexCost > 0 || e.EstScanCost > 0 {
		fmt.Fprintf(w, "  estimated: selectivity %.4f, %.1f candidates, %.1f nodes (index cost %.1f, scan cost %.1f)\n",
			e.Selectivity, e.EstCandidates, e.EstNodeAccesses, e.EstIndexCost, e.EstScanCost)
	}
	fmt.Fprintf(w, "  actual:    %d candidates, %d node accesses; %d resolved in the head, %d records opened\n",
		e.ActualCandidates, e.ActualNodeAccesses, e.ActualHeadResolved, e.ActualCandidates-e.ActualHeadResolved)
	if e.ApproxDelta > 0 {
		tight := "no bound feedback yet"
		if e.ApproxTightness > 0 {
			tight = fmt.Sprintf("tightness EWMA %.2f", e.ApproxTightness)
		}
		fmt.Fprintf(w, "  approx:    guaranteed within (1+%g)x, ladder rung %d, est speedup %.1fx (%s)\n",
			e.ApproxDelta, e.ApproxRung, e.ApproxEstSpeedup, tight)
	}
	for _, sh := range e.PerShard {
		fmt.Fprintf(w, "    shard %d: %d candidates (%d resolved in the head), %d nodes, %d pages, %d results\n",
			sh.Shard, sh.Candidates, sh.HeadResolved, sh.NodeAccesses, sh.PageReads, sh.Results)
	}
}

// printTrace renders a TRACE statement's span tree: the plan, fan-out
// (with per-shard wall times), merge, and cache-tag steps, indented by
// nesting depth.
func printTrace(tr *tsq.TraceInfo) {
	fmt.Printf("trace: %.3f ms total\n", float64(tr.Total.Microseconds())/1000)
	var walk func(spans []tsq.SpanInfo, depth int)
	walk = func(spans []tsq.SpanInfo, depth int) {
		for _, sp := range spans {
			name := sp.Name
			if sp.Name == "shard" {
				name = fmt.Sprintf("shard %d", sp.Shard)
			}
			fmt.Printf("%*s%-12s %8.3f ms%s\n", 2*depth, "", name,
				float64(sp.Duration.Microseconds())/1000, headNote(sp.Name, sp.HeadResolved))
			walk(sp.Children, depth+1)
		}
	}
	walk(tr.Spans, 1)
}

func execute(exec executor, src string, maxRows int) error {
	out, err := exec(src)
	if err != nil {
		return err
	}
	printOutput(out, maxRows)
	return nil
}

// executeProgressive runs one statement through a progressive runner,
// printing each stage as it arrives: the bounded approximate answer
// first, then the exact refinement.
func executeProgressive(run progressor, src string, maxRows int) error {
	return run(src, func(stage tsq.ProgressiveStage) error {
		if d := stage.Output.Stats.Delta; d > 0 {
			fmt.Printf("-- %s stage: every distance guaranteed within (1+%g)x of the true value\n",
				stage.Phase, d)
		} else {
			fmt.Printf("-- %s stage\n", stage.Phase)
		}
		printOutput(stage.Output, maxRows)
		return nil
	})
}

// printOutput renders one statement's result — plan, trace, cost
// summary, and rows.
func printOutput(out *tsq.Output, maxRows int) {
	if out.Explain != nil {
		printExplain(os.Stdout, out.Explain)
	}
	if out.Trace != nil {
		printTrace(out.Trace)
	}
	cached := ""
	if out.Stats.Cached {
		cached = ", cached"
	}
	approx := ""
	if out.Stats.Delta > 0 {
		approx = fmt.Sprintf(", approx delta=%g rung=%d early=%d", out.Stats.Delta, out.Stats.Rung, out.Stats.EarlyAccepts)
		if out.Stats.BoundTightness > 0 {
			approx += fmt.Sprintf(" tightness=%.2f", out.Stats.BoundTightness)
		}
	}
	switch out.Kind {
	case "SELFJOIN":
		fmt.Printf("%d pairs (%.3f ms, %d node accesses, %d pages%s)\n",
			len(out.Pairs), float64(out.Stats.Elapsed.Microseconds())/1000,
			out.Stats.NodeAccesses, out.Stats.PageReads, cached)
		for i, p := range out.Pairs {
			if i == maxRows {
				fmt.Printf("  ... %d more\n", len(out.Pairs)-maxRows)
				break
			}
			fmt.Printf("  %-10s %-10s D=%.4f\n", p.A, p.B, p.Distance)
		}
	default:
		fmt.Printf("%d matches (%.3f ms, %d node accesses, %d pages, %d verified%s%s)\n",
			len(out.Matches), float64(out.Stats.Elapsed.Microseconds())/1000,
			out.Stats.NodeAccesses, out.Stats.PageReads, out.Stats.Candidates, cached, approx)
		for i, m := range out.Matches {
			if i == maxRows {
				fmt.Printf("  ... %d more\n", len(out.Matches)-maxRows)
				break
			}
			if m.Bound > 0 {
				fmt.Printf("  %-10s D=%.4f (true distance <= %.4f)\n", m.Name, m.Distance, m.Bound)
			} else {
				fmt.Printf("  %-10s D=%.4f\n", m.Name, m.Distance)
			}
		}
	}
}
