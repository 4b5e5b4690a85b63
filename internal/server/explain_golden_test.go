package server_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	tsq "repro"
	"repro/internal/server"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/explain.golden from this build's responses")

// TestExplainWireGolden: the explain object of an EXPLAIN RANGE, NN and
// SELFJOIN response, at shards 1 and 4, is the bytes in
// testdata/explain.golden. Run with -update to re-record them. The NN asks
// for every series, so no shard can prune against the fan-out's shared
// k-th distance and the per-shard counts do not depend on scheduling.
func TestExplainWireGolden(t *testing.T) {
	statements := []string{
		"EXPLAIN RANGE SERIES 'W0007' EPS 4 TRANSFORM mavg(20) BOTH",
		fmt.Sprintf("EXPLAIN NN SERIES 'W0007' K %d USING SCAN", testCount),
		"EXPLAIN SELFJOIN EPS 1.5 TRANSFORM mavg(20)",
	}
	var got bytes.Buffer
	for _, shards := range []int{1, 4} {
		db := tsq.MustOpen(tsq.Options{Length: testLength, Shards: shards})
		if err := db.InsertAll(tsq.RandomWalks(testCount, testLength, testSeed)); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(tsq.NewServer(db, tsq.ServerOptions{})))
		for _, stmt := range statements {
			body, err := json.Marshal(server.QueryRequest{Q: stmt})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("shards=%d %s: status %d, err %v: %s", shards, stmt, resp.StatusCode, err, raw)
			}
			var out struct {
				Explain json.RawMessage `json:"explain"`
			}
			if err := json.Unmarshal(raw, &out); err != nil || out.Explain == nil {
				t.Fatalf("shards=%d %s: no explain object (err %v): %s", shards, stmt, err, raw)
			}
			fmt.Fprintf(&got, "shards=%d %s\n%s\n", shards, stmt, out.Explain)
		}
		ts.Close()
		db.Close()
	}
	const path = "testdata/explain.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("EXPLAIN's wire bytes changed.\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
