package main

import (
	"io"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"

	tsq "repro"
	"repro/internal/server"
)

// remoteStore serves 200 random walks of length 64 from a store opened with
// opts and returns the server's URL.
func remoteStore(t *testing.T, opts tsq.Options) string {
	t.Helper()
	db := tsq.MustOpen(opts)
	t.Cleanup(func() { db.Close() })
	if err := db.InsertAll(tsq.RandomWalks(200, 64, 1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(tsq.NewServer(db, tsq.ServerOptions{})))
	t.Cleanup(ts.Close)
	return ts.URL
}

// runCLI runs tsqcli against url with args and returns what it printed.
func runCLI(t *testing.T, url string, args ...string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := run(append([]string{"-remote", url}, args...), &out, io.Discard)
	return out.String(), err
}

// matchRows are the answer rows of a statement's output.
func matchRows(out string) []string {
	var rows []string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, " D=") {
			rows = append(rows, line)
		}
	}
	return rows
}

// TestCommandsAgainstAServer runs tsqcli's commands against a tsqd handler
// in process, on a 4-shard memory store and a 2-shard disk-backed store
// behind 32 pool frames, each row after the ones above it. After an append
// and after an update (W0009 takes W0011's window, then W0013's) the index
// prints the same answer rows as the scan. The TRACE, EXPLAIN APPROX and
// progressive printers, `metrics` (strictly parsed), `traces` and `top
// -once` print what a reader looks for; on disk the pool reports itself
// disk-backed, with misses. A removed flag is an error, not a setting
// silently ignored. (TestTopPrintsShardImbalance reads top's imbalance
// row, TestMetricsFamiliesHaveReaders the disk-backed gauge.)
func TestCommandsAgainstAServer(t *testing.T) {
	mem := remoteStore(t, tsq.Options{Length: 64, Shards: 4})
	disk := remoteStore(t, tsq.Options{Length: 64, Shards: 2, Backing: t.TempDir(), CachePages: 32})
	c := server.NewClient(mem)
	if out, err := runCLI(t, mem, "append", "W0007", "101.5", "102.25", "103"); err != nil || out != "appended 3 point(s) to W0007\n" {
		t.Fatalf("append printed %q, %v", out, err)
	}
	for _, src := range []string{"W0011", "W0013"} {
		vals, err := c.Series(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Update("W0009", vals); err != nil {
			t.Fatal(err)
		}
	}
	query := func(stmt string) []string { return []string{"-query", stmt} }

	for _, row := range []struct {
		name string
		url  string
		args []string
		// want holds multi-line regular expressions the output must match.
		want []string
		// same is a second command whose answer rows must equal these.
		same []string
		// err is what the returned error must say; the output is then not read.
		err string
	}{
		{name: "append: index equals scan", url: mem,
			args: query("RANGE SERIES 'W0007' EPS 2 USING INDEX"),
			want: []string{`(?m)^  W0007 +D=0\.0000$`},
			same: query("RANGE SERIES 'W0007' EPS 2 USING SCAN")},
		{name: "update: index equals scan", url: mem,
			args: query("RANGE SERIES 'W0009' EPS 2 USING INDEX"),
			want: []string{`(?m)^  W0009 +D=0\.0000$`, `(?m)^  W0013 +D=0\.0000$`},
			same: query("RANGE SERIES 'W0009' EPS 2 USING SCAN")},
		{name: "trace", url: mem,
			args: query("TRACE RANGE SERIES 'W0007' EPS 2 TRANSFORM mavg(20)"),
			want: []string{`(?m)^trace: \d+\.\d{3} ms total$`, `(?m)^  fanout +\d+\.\d{3} ms$`,
				`(?m)^    shard [0-3] +\d+\.\d{3} ms  \(\d+ candidates resolved in the head\)$`}},
		{name: "trace: scan join", url: mem,
			args: query("TRACE SELFJOIN EPS 1 USING SCAN"),
			want: []string{`(?m)^  scan +\d+\.\d{3} ms  \(\d+ candidates resolved in the head\)$`, `(?m)^\d+ pairs \(`}},
		{name: "explain approx", url: mem,
			args: query("EXPLAIN NN SERIES 'W0003' K 5 APPROX 0.1"),
			want: []string{`(?m)^  approx:    guaranteed within \(1\+0\.1\)x$`, `(?m)^5 matches \(.*, approx delta=0\.1\)$`}},
		{name: "progressive", url: mem,
			args: []string{"-progressive", "-query", "NN SERIES 'W0003' K 5"},
			want: []string{`(?m)^-- approximate stage: rank i within \(1\+\d.*\)x of the exact i-th distance\n5 matches`, `(?m)^-- exact stage\n5 matches`}},
		{name: "metrics", url: mem,
			args: []string{"metrics"},
			want: []string{`(?m)^tsq_queries_total\{.*\} [1-9]`, `(?m)^tsq_approx_queries_total\{kind="nn"\} [1-9]`}},
		{name: "traces", url: mem,
			args: []string{"traces"},
			want: []string{`(?m)^\d+ retained trace\(s\), newest first:$`, `(?m)^    query: .*W0007`, `(?m)^      shard [0-3] +\d+\.\d{3} ms  \(\d+ candidates resolved in the head\)$`,
				`(?m)^    scan +\d+\.\d{3} ms  \(\d+ candidates resolved in the head\)$`}},
		{name: "top", url: mem,
			args: []string{"top", "-once"},
			want: []string{`(?m)^tsq top — `, `(?m)^cache: `}},
		{name: "removed stats -plans", url: mem,
			args: []string{"stats", "-plans"},
			err:  "flag provided but not defined: -plans"},
		{name: "disk: read", url: disk,
			args: query("RANGE SERIES 'W0007' EPS 5"),
			want: []string{`(?m)^  W0007 +D=0\.0000$`}},
		{name: "disk: metrics", url: disk,
			args: []string{"metrics"},
			want: []string{`(?m)^tsq_pool_capacity_pages [1-9]`, `(?m)^tsq_pool_misses_total [1-9]`}},
		{name: "disk: top", url: disk,
			args: []string{"top", "-once"},
			want: []string{`(?m)^pool \(disk\): [\d.]+% hit \(\d+ hits / [1-9]\d* misses\)`}},
	} {
		t.Run(row.name, func(t *testing.T) {
			out, err := runCLI(t, row.url, row.args...)
			if row.err != "" {
				if err == nil || !strings.Contains(err.Error(), row.err) {
					t.Fatalf("%q returned %v, want %q", row.args, err, row.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("%q: %v", row.args, err)
			}
			for _, re := range row.want {
				if !regexp.MustCompile(re).MatchString(out) {
					t.Errorf("%q printed no match for %s:\n%s", row.args, re, out)
				}
			}
			if row.same == nil {
				return
			}
			other, err := runCLI(t, row.url, row.same...)
			if err != nil {
				t.Fatalf("%q: %v", row.same, err)
			}
			if got, want := matchRows(out), matchRows(other); !slices.Equal(got, want) {
				t.Errorf("%q printed\n%s\n%q printed\n%s", row.args, strings.Join(got, "\n"), row.same, strings.Join(want, "\n"))
			}
		})
	}
}
