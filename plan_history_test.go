package tsq_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	tsq "repro"
)

// A range or join plan depends only on the store and the query: the
// planner keeps no record of the reads before it, so a store that has
// served any mix of reads plans a statement exactly as its cold twin does.

// TestRangePlanIsHistoryFree: AUTO range plans at a narrow eps, at the
// index/scan crossover and at a wide eps, identity and mavg(20), after
// 1,000 mixed reads in two orders.
func TestRangePlanIsHistoryFree(t *testing.T) {
	var stmts []string
	for _, tr := range []string{"", " TRANSFORM mavg(20)"} {
		for _, eps := range []float64{2, 7, 30} {
			stmts = append(stmts, fmt.Sprintf("RANGE SERIES 'W0005' EPS %g%s", eps, tr))
		}
	}
	plansAreHistoryFree(t, stmts)
}

// TestJoinPlanIsHistoryFree: AUTO self joins and two-sided joins, on
// either side of the index/scan choice, after 1,000 mixed reads in two
// orders.
func TestJoinPlanIsHistoryFree(t *testing.T) {
	plansAreHistoryFree(t, []string{
		"SELFJOIN EPS 0.5",
		"SELFJOIN EPS 2 TRANSFORM mavg(20)",
		"JOIN EPS 2 LEFT mavg(20) RIGHT identity()",
		"JOIN EPS 8 LEFT reverse() RIGHT identity()",
	})
}

// plansAreHistoryFree checks, at one shard and at four, that a store which
// ran historyMix forwards, and one which ran it backwards, EXPLAIN each of
// stmts as a store which ran nothing does.
func plansAreHistoryFree(t *testing.T, stmts []string) {
	mix := historyMix()
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			cold := parityDB(t, shards)
			want := make([]map[string]any, len(stmts))
			for i, stmt := range stmts {
				want[i] = explainPlan(t, cold, stmt)
			}
			for _, reversed := range []bool{false, true} {
				busy := parityDB(t, shards)
				for i := range mix {
					stmt := mix[i]
					if reversed {
						stmt = mix[len(mix)-1-i]
					}
					if _, err := busy.Query(stmt); err != nil {
						t.Fatalf("%s: %v", stmt, err)
					}
				}
				for i, stmt := range stmts {
					if got := explainPlan(t, busy, stmt); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("EXPLAIN %s after the mix (reversed %v):\n got  %v\n cold %v", stmt, reversed, got, want[i])
					}
				}
			}
		})
	}
}

// historyMix is 1,000 reads: ranges over every series at eps from narrow
// to wide, identity and mavg(20), and one join in twenty-five (self and
// two-sided, index- and scan-priced), each AUTO, forced to the index or
// forced to the scan in turn.
func historyMix() []string {
	joins := []string{
		"SELFJOIN EPS 0.5",
		"SELFJOIN EPS 2 TRANSFORM mavg(20)",
		"JOIN EPS 2 LEFT mavg(20) RIGHT identity()",
	}
	epss := []float64{0.5, 2, 5, 8}
	usings := []string{"", " USING INDEX", " USING SCAN"}
	out := make([]string, 0, 1000)
	for i := 0; i < 1000; i++ {
		using := usings[i%len(usings)]
		if i%25 == 0 {
			out = append(out, joins[(i/25)%len(joins)]+using)
			continue
		}
		tr := ""
		if (i/len(epss))%2 == 1 {
			tr = " TRANSFORM mavg(20)"
		}
		out = append(out, fmt.Sprintf("RANGE SERIES 'W%04d' EPS %g%s%s", i%parityCount, epss[i%len(epss)], tr, using))
	}
	return out
}

// explainPlan runs EXPLAIN stmt on db and returns its explain object as it
// goes on the wire, less what the execution measured (the actual_* keys).
func explainPlan(t *testing.T, db *tsq.DB, stmt string) map[string]any {
	t.Helper()
	out, err := db.Query("EXPLAIN " + stmt)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", stmt, err)
	}
	raw, err := json.Marshal(out.Explain)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for k := range fields {
		if strings.HasPrefix(k, "actual_") {
			delete(fields, k)
		}
	}
	return fields
}
