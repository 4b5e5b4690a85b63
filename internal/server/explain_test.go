package server_test

import (
	"reflect"
	"strings"
	"testing"
)

// TestExplainRoundTrip: an EXPLAIN statement executes remotely, returns
// the same answers as its plain form, and the plan survives the HTTP
// round trip into the client's Output.
func TestExplainRoundTrip(t *testing.T) {
	fx := newFixture(t)

	plain, err := fx.client.QueryOutput("RANGE SERIES 'W0007' EPS 2 TRANSFORM mavg(20)")
	if err != nil {
		t.Fatal(err)
	}
	if plain.Explain != nil {
		t.Fatal("plain statement carried an explain payload")
	}

	out, err := fx.client.QueryOutput("EXPLAIN RANGE SERIES 'W0007' EPS 2 TRANSFORM mavg(20)")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Matches, plain.Matches) {
		t.Fatalf("EXPLAIN changed the answers:\n %v\n %v", out.Matches, plain.Matches)
	}
	e := out.Explain
	if e == nil {
		t.Fatal("EXPLAIN statement returned no plan over the wire")
	}
	if e.Kind != "range" {
		t.Fatalf("plan kind = %q, want range", e.Kind)
	}
	if e.Strategy != "index" && e.Strategy != "scan" {
		t.Fatalf("plan strategy = %q, want a resolved index/scan choice", e.Strategy)
	}
	if e.Reason == "" || e.Series == 0 {
		t.Fatalf("plan missing planner context: %+v", e)
	}
	if len(e.RectLo) == 0 || len(e.RectLo) != len(e.RectHi) {
		t.Fatalf("plan rectangle malformed: lo=%v hi=%v", e.RectLo, e.RectHi)
	}

	// The reference engine must explain identically (same planner inputs).
	local, err := fx.ref.Query("EXPLAIN RANGE SERIES 'W0007' EPS 2 TRANSFORM mavg(20)")
	if err != nil {
		t.Fatal(err)
	}
	if local.Explain.Strategy != e.Strategy || local.Explain.Series != e.Series {
		t.Fatalf("remote plan %+v diverges from local plan %+v", e, local.Explain)
	}
	if !reflect.DeepEqual(local.Explain.RectLo, e.RectLo) || !reflect.DeepEqual(local.Explain.RectHi, e.RectHi) {
		t.Fatal("search rectangle did not round-trip")
	}
}

// TestExplainForcedStrategy: USING pins the strategy and the plan says so.
func TestExplainForcedStrategy(t *testing.T) {
	fx := newFixture(t)
	out, err := fx.client.QueryOutput("EXPLAIN NN SERIES 'W0003' K 4 USING SCAN")
	if err != nil {
		t.Fatal(err)
	}
	if out.Explain == nil {
		t.Fatal("no explain payload")
	}
	if out.Explain.Strategy != "scan" || !out.Explain.Forced {
		t.Fatalf("forced plan = %+v, want forced scan", out.Explain)
	}
	if !strings.Contains(out.Explain.Reason, "forced") {
		t.Fatalf("reason %q does not mention the forced choice", out.Explain.Reason)
	}
}

// TestExplainJoinRoundTrip: EXPLAIN SELFJOIN ... USING AUTO returns the
// full join plan — method, reasoning, estimated vs actual cost, per-shard
// provenance — through the HTTP client, and the two-sided JOIN statement
// explains the same way.
func TestExplainJoinRoundTrip(t *testing.T) {
	fx := newFixture(t)

	plain, err := fx.client.QueryOutput("SELFJOIN EPS 2 TRANSFORM mavg(20) USING AUTO")
	if err != nil {
		t.Fatal(err)
	}
	out, err := fx.client.QueryOutput("EXPLAIN SELFJOIN EPS 2 TRANSFORM mavg(20) USING AUTO")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Pairs, plain.Pairs) {
		t.Fatal("EXPLAIN changed the join answers")
	}
	e := out.Explain
	if e == nil {
		t.Fatal("EXPLAIN SELFJOIN returned no plan over the wire")
	}
	if e.Kind != "selfjoin" || e.Forced {
		t.Fatalf("plan = %+v, want an unforced selfjoin plan", e)
	}
	if e.Method == "" || e.Reason == "" || e.Series == 0 {
		t.Fatalf("plan missing method/reasoning: %+v", e)
	}
	if e.EstIndexCost <= 0 || e.EstScanCost <= 0 {
		t.Fatalf("plan missing estimated costs: %+v", e)
	}
	// Estimated vs actual: the executed cost came back alongside.
	if e.ActualCandidates == 0 && len(plain.Pairs) > 0 {
		t.Fatalf("plan carries no actuals: %+v", e)
	}

	// Two-sided JOIN explains with ordered-pair answers and a method.
	jout, err := fx.client.QueryOutput("EXPLAIN JOIN EPS 2 LEFT reverse() | mavg(20) RIGHT mavg(20)")
	if err != nil {
		t.Fatal(err)
	}
	if jout.Explain == nil || jout.Explain.Kind != "join" || jout.Explain.Method == "" {
		t.Fatalf("join plan = %+v", jout.Explain)
	}
}

// TestExplainNotCached: EXPLAIN statements bypass the result cache, so
// repeated EXPLAINs keep reporting live actuals.
func TestExplainNotCached(t *testing.T) {
	fx := newFixture(t)
	const stmt = "EXPLAIN RANGE SERIES 'W0005' EPS 1.5"
	first, err := fx.client.QueryOutput(stmt)
	if err != nil {
		t.Fatal(err)
	}
	second, err := fx.client.QueryOutput(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Cached || second.Stats.Cached {
		t.Fatal("EXPLAIN statement was served from the cache")
	}
}
