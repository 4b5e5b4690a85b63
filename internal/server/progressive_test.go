package server_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/server"
)

// TestProgressiveHTTP drives POST /query/progressive end to end: the SSE
// stream must deliver the bounded approximate stage first, then an exact
// refinement identical to a plain /query execution, with EXPLAIN and the
// approximate bookkeeping riding along on the wire.
func TestProgressiveHTTP(t *testing.T) {
	fx := newFixture(t)

	exact, err := fx.client.Query("NN SERIES 'W0042' K 5")
	if err != nil {
		t.Fatal(err)
	}

	var stages []server.ProgressiveStagePayload
	err = fx.client.QueryProgressive(context.Background(), "EXPLAIN NN SERIES 'W0042' K 5",
		func(st server.ProgressiveStagePayload) error {
			stages = append(stages, st)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 2 {
		t.Fatalf("got %d stages, want 2", len(stages))
	}

	apx := stages[0]
	if apx.Phase != "approximate" || apx.Final {
		t.Fatalf("first stage: phase %q final %t", apx.Phase, apx.Final)
	}
	if apx.Result.Stats.Delta <= 0 {
		t.Fatalf("approximate stage carries no delta: %+v", apx.Result.Stats)
	}
	if apx.Result.Explain == nil || apx.Result.Explain.ApproxDelta != apx.Result.Stats.Delta {
		t.Fatalf("approximate stage explain: %+v", apx.Result.Explain)
	}
	if len(apx.Result.Matches) != len(exact.Matches) {
		t.Fatalf("approximate stage has %d matches, exact %d",
			len(apx.Result.Matches), len(exact.Matches))
	}
	for i, m := range apx.Result.Matches {
		limit := (1+apx.Result.Stats.Delta)*exact.Matches[i].Distance + 1e-9
		if m.Distance > limit {
			t.Fatalf("approximate rank %d: %.9f > %.9f", i, m.Distance, limit)
		}
	}

	fin := stages[1]
	if fin.Phase != "exact" || !fin.Final {
		t.Fatalf("final stage: phase %q final %t", fin.Phase, fin.Final)
	}
	if fin.Result.Stats.Delta != 0 {
		t.Fatalf("exact refinement carries delta %g", fin.Result.Stats.Delta)
	}
	if !reflect.DeepEqual(fin.Result.Matches, exact.Matches) {
		t.Fatalf("exact refinement diverges from /query:\n sse   %v\n plain %v",
			fin.Result.Matches, exact.Matches)
	}
	if fin.Result.Explain == nil || fin.Result.Explain.ApproxDelta != 0 {
		t.Fatalf("exact stage explain: %+v", fin.Result.Explain)
	}

	// Non-RANGE/NN statements are rejected before any stage streams.
	var got int
	err = fx.client.QueryProgressive(context.Background(), "SELFJOIN EPS 1",
		func(server.ProgressiveStagePayload) error { got++; return nil })
	if err == nil || got != 0 {
		t.Fatalf("progressive SELFJOIN: err=%v stages=%d", err, got)
	}
}

// TestApproxOverHTTP: an APPROX statement through plain POST /query
// reports its delta on the wire and APPROX 0 matches the exact answer byte
// for byte.
func TestApproxOverHTTP(t *testing.T) {
	fx := newFixture(t)

	resp, err := fx.client.Query("RANGE SERIES 'W0011' EPS 6 APPROX 0.25")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Delta != 0.25 {
		t.Fatalf("wire stats delta %g, want 0.25", resp.Stats.Delta)
	}

	exact, err := fx.client.Query("NN SERIES 'W0042' K 5")
	if err != nil {
		t.Fatal(err)
	}
	zero, err := fx.client.Query("NN SERIES 'W0042' K 5 APPROX 0")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exact.Matches, zero.Matches) {
		t.Fatalf("APPROX 0 over HTTP diverges:\n exact %v\n zero  %v", exact.Matches, zero.Matches)
	}
	if zero.Stats.Delta != 0 {
		t.Fatalf("APPROX 0 took the approximate path: %+v", zero.Stats)
	}
}
