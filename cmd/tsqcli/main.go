// Command tsqcli executes statements of the tsq query language, either
// against a CSV loaded into an embedded engine or — with -remote —
// against a running tsqd server, from -query or interactively from
// standard input (one statement per line). Subcommands against a remote
// server: `append` slides series windows forward, `watch` follows a
// standing query's enter/leave events, `stats` prints the server's
// counters, `metrics` scrapes and validates the /metrics Prometheus
// exposition, `traces` fetches retained execution traces from the
// server's flight recorder (by request ID, kind, strategy, or outcome —
// span trees included even when TRACE was never requested), and `top`
// renders a refreshing console dashboard (per-kind qps and latency
// percentiles, cache hit rate, planner drift, approximate-tier traffic,
// shard imbalance, streaming health; `top -once` prints one snapshot and
// exits). A TRACE
// statement prefix prints the execution's span tree with per-shard
// timings. -progressive streams RANGE/NN statements in two stages: the
// approximate answer (APPROX delta, exact distances) first, then the exact
// refinement.
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
//	tsqcli -remote http://localhost:8080 stats
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	tsq "repro"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	var usage usageError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
	case errors.As(err, &usage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "tsqcli:", err)
		os.Exit(1)
	}
}

// usageError is a command line run refused and has already reported on
// stderr; main exits 2 for it, as the flag package does.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// run is the whole command: it parses args, runs the statement or the
// subcommand they name, and writes what it prints to stdout and its
// diagnostics to stderr. Without -query it reads statements from os.Stdin.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tsqcli", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataPath = fs.String("data", "", "CSV file of series: name,v1,v2,...")
		remote   = fs.String("remote", "", "base URL of a tsqd server (e.g. http://localhost:8080); queries run server-side")
		queryStr = fs.String("query", "", "single statement to execute (default: interactive)")
		k        = fs.Int("k", 2, "DFT coefficients kept in the index (embedded mode)")
		space    = fs.String("space", "polar", "feature space: polar or rect (embedded mode)")
		maxRows  = fs.Int("maxrows", 20, "result rows to print")
		prog     = fs.Bool("progressive", false, "stream RANGE/NN statements in two stages: approximate answer first, then the exact refinement")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}

	if args := fs.Args(); len(args) > 0 {
		c := &cli{remote: *remote, stdout: stdout, stderr: stderr}
		var sub func(args []string) error
		switch args[0] {
		case "append":
			sub = c.append
		case "watch":
			sub = c.watch
		case "stats":
			sub = c.stats
		case "metrics":
			sub = c.metrics
		case "traces":
			sub = c.traces
		case "top":
			sub = c.top
		default:
			return fmt.Errorf("unknown subcommand %q (want append, watch, stats, metrics, traces, or top)", args[0])
		}
		if c.remote == "" {
			return fmt.Errorf("%s requires -remote", args[0])
		}
		return sub(args[1:])
	}

	if *dataPath == "" && *remote == "" {
		fmt.Fprintln(stderr, "tsqcli: -data or -remote is required")
		return usageError{errors.New("-data or -remote is required")}
	}
	if *remote != "" {
		return runRemote(stdout, *remote, *dataPath, *queryStr, *maxRows, *prog)
	}
	return runEmbedded(stdout, *dataPath, *queryStr, *k, *space, *maxRows, *prog)
}

// cli runs the subcommands against a tsqd server.
type cli struct {
	remote         string
	stdout, stderr io.Writer
}

// flags is a subcommand's flag set, reporting to stderr.
func (c *cli) flags(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	return fs
}

// append sends appends to a tsqd server: either one series with
// inline values, or a whole tick stream from a CSV file (replayed in
// order, batched per series per step run).
func (c *cli) append(args []string) error {
	fs := c.flags("append")
	ticksPath := fs.String("ticks", "", "CSV tick stream to replay: name,step,value")
	rate := fs.Float64("rate", 0, "pace -ticks replay to this many ticks/sec (0 = full speed) for realistic soak demos")
	if err := fs.Parse(args); err != nil {
		return err
	}
	client := server.NewClient(c.remote)
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
			fmt.Fprintf(c.stdout, "appended %d ticks from %s (%d requests, %.1f ticks/sec over %s)\n",
				sent, *ticksPath, requests, float64(sent)/elapsed.Seconds(), elapsed.Round(time.Millisecond))
		} else {
			fmt.Fprintf(c.stdout, "appended %d ticks from %s (%d requests)\n", sent, *ticksPath, requests)
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
	fmt.Fprintf(c.stdout, "appended %d point(s) to %s\n", len(values), name)
	return nil
}

// stats prints a tsqd server's cumulative counters. Planner drift is
// `top`'s row (tsq_plan_cost_error_ratio per kind) and EXPLAIN's
// estimated-vs-actual lines for one query.
func (c *cli) stats(args []string) error {
	if err := c.flags("stats").Parse(args); err != nil {
		return err
	}
	st, err := server.NewClient(c.remote).Stats()
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "series %d (length %d, %d shard(s)), uptime %.0fs\n",
		st.Series, st.Length, st.Shards, st.UptimeSeconds)
	fmt.Fprintf(c.stdout, "queries %d, writes %d, appends %d, monitors %d\n",
		st.Queries, st.Writes, st.Appends, st.Monitors)
	fmt.Fprintf(c.stdout, "cache %d/%d entries, %d hits / %d misses\n",
		st.CacheLen, st.CacheCap, st.CacheHits, st.CacheMisses)
	fmt.Fprintf(c.stdout, "cost: %d node accesses, %d pages, %d verified, %.1f ms\n",
		st.NodeAccesses, st.PageReads, st.Candidates, st.ElapsedUS/1000)
	return nil
}

// metrics fetches a tsqd server's /metrics exposition, validates it
// with the strict parser, and prints it verbatim: a scrape and a syntax
// check in one command. It takes no arguments.
func (c *cli) metrics([]string) error {
	text, err := server.NewClient(c.remote).Metrics()
	if err != nil {
		return err
	}
	samples, err := telemetry.ParseText(strings.NewReader(text))
	if err != nil {
		return fmt.Errorf("invalid exposition: %w", err)
	}
	fmt.Fprint(c.stdout, text)
	fmt.Fprintf(c.stderr, "tsqcli: exposition OK, %d samples\n", len(samples))
	return nil
}

// headNote annotates a search, scan or shard span with what it resolved in
// the spectrum heads.
func headNote(span string, headResolved int) string {
	if span != "search" && span != "scan" && span != "shard" {
		return ""
	}
	return fmt.Sprintf("  (%d candidates resolved in the head)", headResolved)
}

// printSpans renders a span tree, indented by depth.
func printSpans(w io.Writer, spans []tsq.SpanInfo, depth int) {
	for _, sp := range spans {
		name := sp.Name
		if sp.Name == "shard" {
			name = fmt.Sprintf("shard %d", sp.Shard)
		}
		fmt.Fprintf(w, "%*s%-12s %8.3f ms%s\n", 2*depth, "", name,
			float64(sp.Duration)/float64(time.Millisecond), headNote(sp.Name, sp.HeadResolved))
		printSpans(w, sp.Children, depth+1)
	}
}

// watch registers (or attaches to) a monitor and prints its events
// until interrupted.
func (c *cli) watch(args []string) error {
	fs := c.flags("watch")
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
	client := server.NewClient(c.remote)
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
		fmt.Fprintf(c.stdout, "monitor %d registered (%s), %d initial member(s)\n", id, *kind, len(resp.Members))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ws, err := client.Watch(ctx, id, -1)
	if err != nil {
		return err
	}
	defer ws.Close()
	for _, m := range ws.Members {
		fmt.Fprintf(c.stdout, "  member %-10s D=%.4f\n", m.Name, m.Distance)
	}
	for ev := range ws.Events {
		if ev.Kind == "enter" {
			fmt.Fprintf(c.stdout, "  enter  %-10s D=%.4f  (seq %d)\n", ev.Name, ev.Distance, ev.Seq)
		} else {
			fmt.Fprintf(c.stdout, "  leave  %-10s           (seq %d)\n", ev.Name, ev.Seq)
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

func runEmbedded(w io.Writer, dataPath, queryStr string, k int, space string, maxRows int, progressive bool) error {
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
	fmt.Fprintf(w, "loaded %d series of length %d from %s (%s space, K=%d)\n",
		db.Len(), db.Length(), dataPath, space, k)
	run := func(src string) error { return execute(w, db.Query, src, maxRows) }
	if progressive {
		run = func(src string) error { return executeProgressive(w, db.QueryProgressive, src, maxRows) }
	}
	return loop(w, run, queryStr)
}

func runRemote(w io.Writer, remote, dataPath, queryStr string, maxRows int, progressive bool) error {
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
		fmt.Fprintf(w, "uploaded %d series from %s (server now holds %d)\n",
			len(batch), dataPath, total)
	}
	health, err := client.Health()
	if err != nil {
		return fmt.Errorf("connecting to %s: %w", remote, err)
	}
	fmt.Fprintf(w, "connected to %s: %d series of length %d\n",
		remote, health.Series, health.Length)
	run := func(src string) error { return execute(w, client.QueryOutput, src, maxRows) }
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
		run = func(src string) error { return executeProgressive(w, prog, src, maxRows) }
	}
	return loop(w, run, queryStr)
}

// loop runs queryStr, or without one each line of standard input until a
// blank line, quit or exit, prompting on w.
func loop(w io.Writer, run func(src string) error, queryStr string) error {
	if queryStr != "" {
		return run(queryStr)
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Fprint(w, "tsq> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.EqualFold(line, "quit") || strings.EqualFold(line, "exit") {
			break
		}
		if err := run(line); err != nil {
			fmt.Fprintln(w, "error:", err)
		}
		fmt.Fprint(w, "tsq> ")
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
		fmt.Fprintf(w, "  approx:    guaranteed within (1+%g)x\n", e.ApproxDelta)
	}
	for _, sh := range e.PerShard {
		fmt.Fprintf(w, "    shard %d: %d candidates (%d resolved in the head), %d nodes, %d pages, %d results\n",
			sh.Shard, sh.Candidates, sh.HeadResolved, sh.NodeAccesses, sh.PageReads, sh.Results)
	}
}

func execute(w io.Writer, exec executor, src string, maxRows int) error {
	out, err := exec(src)
	if err != nil {
		return err
	}
	printOutput(w, out, maxRows)
	return nil
}

// executeProgressive runs one statement through a progressive runner,
// printing each stage as it arrives: the approximate answer first, then
// the exact refinement.
func executeProgressive(w io.Writer, run progressor, src string, maxRows int) error {
	return run(src, func(stage tsq.ProgressiveStage) error {
		if d := stage.Output.Stats.Delta; d > 0 {
			fmt.Fprintf(w, "-- %s stage: rank i within (1+%g)x of the exact i-th distance\n",
				stage.Phase, d)
		} else {
			fmt.Fprintf(w, "-- %s stage\n", stage.Phase)
		}
		printOutput(w, stage.Output, maxRows)
		return nil
	})
}

// printOutput renders one statement's result — plan, trace, cost
// summary, and rows.
func printOutput(w io.Writer, out *tsq.Output, maxRows int) {
	if out.Explain != nil {
		printExplain(w, out.Explain)
	}
	if out.Trace != nil {
		fmt.Fprintf(w, "trace: %.3f ms total\n", float64(out.Trace.Total)/float64(time.Millisecond))
		printSpans(w, out.Trace.Spans, 1)
	}
	cached := ""
	if out.Stats.Cached {
		cached = ", cached"
	}
	approx := ""
	if out.Stats.Delta > 0 {
		approx = fmt.Sprintf(", approx delta=%g", out.Stats.Delta)
	}
	switch out.Kind {
	case "SELFJOIN":
		fmt.Fprintf(w, "%d pairs (%.3f ms, %d node accesses, %d pages%s)\n",
			len(out.Pairs), float64(out.Stats.Elapsed.Microseconds())/1000,
			out.Stats.NodeAccesses, out.Stats.PageReads, cached)
		for i, p := range out.Pairs {
			if i == maxRows {
				fmt.Fprintf(w, "  ... %d more\n", len(out.Pairs)-maxRows)
				break
			}
			fmt.Fprintf(w, "  %-10s %-10s D=%.4f\n", p.A, p.B, p.Distance)
		}
	default:
		fmt.Fprintf(w, "%d matches (%.3f ms, %d node accesses, %d pages, %d verified%s%s)\n",
			len(out.Matches), float64(out.Stats.Elapsed.Microseconds())/1000,
			out.Stats.NodeAccesses, out.Stats.PageReads, out.Stats.Candidates, cached, approx)
		for i, m := range out.Matches {
			if i == maxRows {
				fmt.Fprintf(w, "  ... %d more\n", len(out.Matches)-maxRows)
				break
			}
			fmt.Fprintf(w, "  %-10s D=%.4f\n", m.Name, m.Distance)
		}
	}
}
