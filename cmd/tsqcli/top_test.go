package main

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	tsq "repro"
	"repro/internal/server"
)

// TestTopPrintsShardImbalance drives `top -once`'s frame against a
// 4-shard server after indexed range reads. The fan-out imbalance
// histogram is labelled by kind, so the row must sum the kind-labelled
// samples; reading the unlabelled keys left it at zero and unprinted.
func TestTopPrintsShardImbalance(t *testing.T) {
	db := tsq.MustOpen(tsq.Options{Length: 64, Shards: 4})
	if err := db.InsertAll(tsq.RandomWalks(200, 64, 1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(tsq.NewServer(db, tsq.ServerOptions{})))
	defer ts.Close()
	client := server.NewClient(ts.URL)
	for i := 0; i < 5; i++ {
		if _, err := client.Query(fmt.Sprintf("RANGE SERIES 'W%04d' EPS 5 USING INDEX", i)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := takeSnapshot(client)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	renderFrame(&out, ts.URL, snap, nil)
	if !strings.Contains(out.String(), "shard imbalance (max/mean candidates)") {
		t.Fatalf("top -once printed no shard imbalance row:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "worst recent") {
		t.Fatalf("top -once printed no worst-recent rows:\n%s", out.String())
	}
}
