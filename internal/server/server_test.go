package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	tsq "repro"
	"repro/internal/server"
)

const (
	testCount  = 60
	testLength = 64
	testSeed   = 42
)

// fixture is one served DB plus an identically-loaded embedded DB used as
// the reference for parity checks.
type fixture struct {
	ts     *httptest.Server
	client *server.Client
	srv    *tsq.Server
	ref    *tsq.DB
	walks  []tsq.NamedSeries
}

// newFixture starts an HTTP server over an empty DB and loads the same
// random walks into an embedded reference DB. The served DB is populated
// over the wire: the first few series one-by-one through POST /series,
// the rest through POST /series/batch.
func newFixture(t *testing.T) *fixture {
	t.Helper()
	walks := tsq.RandomWalks(testCount, testLength, testSeed)

	ref := tsq.MustOpen(tsq.Options{Length: testLength})
	if err := ref.InsertAll(walks); err != nil {
		t.Fatal(err)
	}

	srv := tsq.NewServer(tsq.MustOpen(tsq.Options{Length: testLength}), tsq.ServerOptions{})
	ts := httptest.NewServer(server.New(srv))
	t.Cleanup(ts.Close)
	client := server.NewClient(ts.URL)

	for _, s := range walks[:3] {
		if err := client.Insert(s.Name, s.Values); err != nil {
			t.Fatal(err)
		}
	}
	if total, err := client.InsertBatch(walks[3:]); err != nil {
		t.Fatal(err)
	} else if total != testCount {
		t.Fatalf("server holds %d series after upload, want %d", total, testCount)
	}
	return &fixture{ts: ts, client: client, srv: srv, ref: ref, walks: walks}
}

func matchesEqual(t *testing.T, got []server.MatchPayload, want []tsq.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name {
			t.Fatalf("match %d: name %q, want %q", i, got[i].Name, want[i].Name)
		}
		if math.Abs(got[i].Distance-want[i].Distance) > 1e-9 {
			t.Fatalf("match %d: distance %g, want %g", i, got[i].Distance, want[i].Distance)
		}
	}
}

// TestRangeParityJSONAndRemoteCLI is the acceptance scenario: the same
// RANGE ... TRANSFORM mavg(20) statement answered identically by the
// embedded library, the raw /query endpoint, the typed /query/range
// endpoint, and the QueryOutput path tsqcli --remote uses.
func TestRangeParityJSONAndRemoteCLI(t *testing.T) {
	fx := newFixture(t)
	const stmt = "RANGE SERIES 'W0007' EPS 2.5 TRANSFORM mavg(20)"

	want, err := fx.ref.Query(stmt)
	if err != nil {
		t.Fatal(err)
	}

	viaQuery, err := fx.client.Query(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if viaQuery.Kind != "RANGE" {
		t.Fatalf("kind = %q, want RANGE", viaQuery.Kind)
	}
	matchesEqual(t, viaQuery.Matches, want.Matches)

	viaTyped := postJSON[server.QueryResponse](t, fx.ts, "/query/range", server.RangeRequest{
		Series: "W0007", Eps: 2.5, Transform: "mavg(20)",
	})
	matchesEqual(t, viaTyped.Matches, want.Matches)

	// The tsqcli --remote path: QueryOutput converts the wire response
	// back into the library's Output.
	viaCLI, err := fx.client.QueryOutput(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaCLI.Matches) != len(want.Matches) {
		t.Fatalf("remote CLI got %d matches, want %d", len(viaCLI.Matches), len(want.Matches))
	}
	for i := range want.Matches {
		if viaCLI.Matches[i].Name != want.Matches[i].Name {
			t.Fatalf("remote CLI match %d: %q, want %q", i, viaCLI.Matches[i].Name, want.Matches[i].Name)
		}
	}
}

func postJSON[T any](t *testing.T, ts *httptest.Server, path string, body any) *T {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		var e server.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST %s: HTTP %d: %s", path, resp.StatusCode, e.Error)
	}
	out := new(T)
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestTypedEndpointsMatchLanguage(t *testing.T) {
	fx := newFixture(t)

	t.Run("nn", func(t *testing.T) {
		want, err := fx.ref.Query("NN SERIES 'W0003' K 5 TRANSFORM reverse()|mavg(10)")
		if err != nil {
			t.Fatal(err)
		}
		got := postJSON[server.QueryResponse](t, fx.ts, "/query/nn", server.NNRequest{
			Series: "W0003", K: 5, Transform: "reverse()|mavg(10)",
		})
		matchesEqual(t, got.Matches, want.Matches)
	})

	t.Run("nn values", func(t *testing.T) {
		q := fx.walks[9].Values
		want, _, err := fx.ref.NN(q, 3, tsq.Identity())
		if err != nil {
			t.Fatal(err)
		}
		got := postJSON[server.QueryResponse](t, fx.ts, "/query/nn", server.NNRequest{
			Values: q, K: 3,
		})
		matchesEqual(t, got.Matches, want)
	})

	t.Run("selfjoin", func(t *testing.T) {
		want, err := fx.ref.Query("SELFJOIN EPS 1.5 TRANSFORM mavg(20) METHOD d")
		if err != nil {
			t.Fatal(err)
		}
		got := postJSON[server.QueryResponse](t, fx.ts, "/query/selfjoin", server.SelfJoinRequest{
			Eps: 1.5, Transform: "mavg(20)", Method: "d",
		})
		if len(got.Pairs) != len(want.Pairs) {
			t.Fatalf("got %d pairs, want %d", len(got.Pairs), len(want.Pairs))
		}
	})

	t.Run("two-sided join", func(t *testing.T) {
		want, _, err := fx.ref.JoinTwoSided(1.5,
			tsq.Reverse().Then(tsq.MovingAverage(20)), tsq.MovingAverage(20))
		if err != nil {
			t.Fatal(err)
		}
		got := postJSON[server.QueryResponse](t, fx.ts, "/query/join", server.JoinRequest{
			Eps: 1.5, Left: "reverse()|mavg(20)", Right: "mavg(20)",
		})
		if len(got.Pairs) != len(want) {
			t.Fatalf("got %d pairs, want %d", len(got.Pairs), len(want))
		}
		for i := range want {
			if got.Pairs[i].A != want[i].A || got.Pairs[i].B != want[i].B {
				t.Fatalf("pair %d: (%s, %s), want (%s, %s)",
					i, got.Pairs[i].A, got.Pairs[i].B, want[i].A, want[i].B)
			}
		}
	})

	t.Run("subsequence", func(t *testing.T) {
		window := fx.walks[4].Values[10:30]
		want, _, err := fx.ref.Subsequence(window, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		got := postJSON[server.SubseqResponse](t, fx.ts, "/query/subsequence", server.SubseqRequest{
			Values: window, Eps: 0.5,
		})
		if len(got.Matches) != len(want) {
			t.Fatalf("got %d matches, want %d", len(got.Matches), len(want))
		}
		found := false
		for _, m := range got.Matches {
			if m.Name == "W0004" && m.Offset == 10 {
				found = true
			}
		}
		if !found {
			t.Fatal("subsequence scan did not locate the planted window W0004@10")
		}
	})

	t.Run("range with moment bounds", func(t *testing.T) {
		want, err := fx.ref.Query("RANGE SERIES 'W0002' EPS 4 MEAN [20, 90] STD [0.5, 50]")
		if err != nil {
			t.Fatal(err)
		}
		got := postJSON[server.QueryResponse](t, fx.ts, "/query/range", server.RangeRequest{
			Series: "W0002", Eps: 4,
			Mean: &[2]float64{20, 90}, Std: &[2]float64{0.5, 50},
		})
		matchesEqual(t, got.Matches, want.Matches)
	})

	t.Run("range scan strategy", func(t *testing.T) {
		want, err := fx.ref.Query("RANGE SERIES 'W0005' EPS 3 TRANSFORM mavg(8) USING SCAN")
		if err != nil {
			t.Fatal(err)
		}
		got := postJSON[server.QueryResponse](t, fx.ts, "/query/range", server.RangeRequest{
			Series: "W0005", Eps: 3, Transform: "mavg(8)", Using: "scan",
		})
		matchesEqual(t, got.Matches, want.Matches)
	})
}

func TestSeriesCRUD(t *testing.T) {
	fx := newFixture(t)

	names, err := fx.client.Names()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != testCount {
		t.Fatalf("Names returned %d, want %d", len(names), testCount)
	}

	got, err := fx.client.Series("W0001")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != testLength {
		t.Fatalf("series length %d, want %d", len(got), testLength)
	}
	for i, v := range fx.walks[1].Values {
		if math.Abs(got[i]-v) > 1e-12 {
			t.Fatalf("value %d: %g, want %g", i, got[i], v)
		}
	}

	// Update replaces and reindexes: the updated series becomes its own
	// nearest neighbor with the new shape.
	if err := fx.client.Update("W0001", fx.walks[2].Values); err != nil {
		t.Fatal(err)
	}
	got, err = fx.client.Series("W0001")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-fx.walks[2].Values[0]) > 1e-12 {
		t.Fatal("update did not replace stored values")
	}

	deleted, err := fx.client.Delete("W0001")
	if err != nil {
		t.Fatal(err)
	}
	if !deleted {
		t.Fatal("Delete(W0001) = false, want true")
	}
	deleted, err = fx.client.Delete("W0001")
	if err != nil {
		t.Fatal(err)
	}
	if deleted {
		t.Fatal("second Delete(W0001) = true, want false")
	}
	if _, err := fx.client.Series("W0001"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("Series on deleted name: err = %v, want HTTP 404", err)
	}

	// Re-insertion after delete is allowed.
	if err := fx.client.Insert("W0001", fx.walks[1].Values); err != nil {
		t.Fatal(err)
	}
}

// TestRejectedUpdatePreservesSeries guards the PUT data-loss path: an
// update with invalid values must leave the stored series untouched.
func TestRejectedUpdatePreservesSeries(t *testing.T) {
	fx := newFixture(t)
	err := fx.client.Update("W0002", []float64{1, 2, 3}) // wrong length
	if err == nil {
		t.Fatal("update with wrong length succeeded")
	}
	got, err := fx.client.Series("W0002")
	if err != nil {
		t.Fatalf("series destroyed by rejected update: %v", err)
	}
	for i, v := range fx.walks[2].Values {
		if math.Abs(got[i]-v) > 1e-12 {
			t.Fatalf("value %d corrupted by rejected update: %g, want %g", i, got[i], v)
		}
	}
}

// TestBatchInsertAtomic guards retryability: a failed batch must insert
// nothing, so the same batch can be fixed and re-sent.
func TestBatchInsertAtomic(t *testing.T) {
	fx := newFixture(t)
	fresh := make([]float64, testLength)
	for i := range fresh {
		fresh[i] = float64(i % 11)
	}
	batch := []tsq.NamedSeries{
		{Name: "NEW1", Values: fresh},
		{Name: "NEW2", Values: fresh},
		{Name: "W0000", Values: fresh}, // duplicate: whole batch must fail
	}
	if _, err := fx.client.InsertBatch(batch); err == nil {
		t.Fatal("batch with duplicate succeeded")
	}
	for _, name := range []string{"NEW1", "NEW2"} {
		if _, err := fx.client.Series(name); err == nil {
			t.Fatalf("partial batch left %s behind", name)
		}
	}
	// The corrected batch now goes through cleanly.
	if _, err := fx.client.InsertBatch(batch[:2]); err != nil {
		t.Fatal(err)
	}
}

// TestSeriesNameEscaping round-trips names that need URL escaping: the
// client path-escapes, the mux unescapes the path value.
func TestSeriesNameEscaping(t *testing.T) {
	fx := newFixture(t)
	for _, name := range []string{"AC/DC daily", "50% off", "a?b#c", "tab\tname"} {
		if err := fx.client.Insert(name, fx.walks[0].Values); err != nil {
			t.Fatalf("Insert(%q): %v", name, err)
		}
		got, err := fx.client.Series(name)
		if err != nil {
			t.Fatalf("Series(%q): %v", name, err)
		}
		if len(got) != testLength {
			t.Fatalf("Series(%q) returned %d values", name, len(got))
		}
		if err := fx.client.Update(name, fx.walks[1].Values); err != nil {
			t.Fatalf("Update(%q): %v", name, err)
		}
		deleted, err := fx.client.Delete(name)
		if err != nil || !deleted {
			t.Fatalf("Delete(%q) = %v, %v", name, deleted, err)
		}
	}
}

func TestErrorStatuses(t *testing.T) {
	fx := newFixture(t)
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"malformed json", "POST", "/query", `{"q": `, http.StatusBadRequest},
		{"empty query", "POST", "/query", `{"q": ""}`, http.StatusBadRequest},
		{"parse error", "POST", "/query", `{"q": "FROB ALL THE THINGS"}`, http.StatusBadRequest},
		{"moment bounds on NN", "POST", "/query", `{"q": "NN SERIES 'W0000' K 3 MEAN [1e9, 2e9]"}`, http.StatusBadRequest},
		{"moment bounds on SELFJOIN", "POST", "/query", `{"q": "SELFJOIN EPS 1 STD [0, 1]"}`, http.StatusBadRequest},
		{"unknown series in a statement", "POST", "/query", `{"q": "RANGE SERIES 'NOPE' EPS 1"}`, http.StatusNotFound},
		{"unknown series in query", "POST", "/query", `{"q": "RANGE SERIES 'NOPE' EPS 1"}`, http.StatusNotFound},
		{"duplicate insert", "POST", "/series", `{"name": "W0000", "values": [1,2,3]}`, http.StatusConflict},
		{"bad transform", "POST", "/query/range", `{"series": "W0000", "eps": 1, "transform": "frobnicate(3)"}`, http.StatusBadRequest},
		{"warp composed", "POST", "/query/range", `{"series": "W0000", "eps": 1, "transform": "warp(2)|mavg(3)"}`, http.StatusBadRequest},
		{"both series and values", "POST", "/query/range", `{"series": "W0000", "values": [1,2], "eps": 1}`, http.StatusBadRequest},
		{"neither series nor values", "POST", "/query/range", `{"eps": 1}`, http.StatusBadRequest},
		{"bad k", "POST", "/query/nn", `{"series": "W0000", "k": 0}`, http.StatusBadRequest},
		{"bad strategy", "POST", "/query/range", `{"series": "W0000", "eps": 1, "using": "warpdrive"}`, http.StatusBadRequest},
		{"bad join method", "POST", "/query/selfjoin", `{"eps": 1, "method": "z"}`, http.StatusBadRequest},
		{"empty subsequence", "POST", "/query/subsequence", `{"eps": 1}`, http.StatusBadRequest},
		{"unknown series fetch", "GET", "/series/NOPE", "", http.StatusNotFound},
		{"trailing data", "POST", "/query", `{"q": "x"} {"q": "y"}`, http.StatusBadRequest},
		{"stray closing brace", "POST", "/query", `{"q": "RANGE SERIES 'W0001' EPS 1"}}`, http.StatusBadRequest},
		{"stray closing bracket", "POST", "/query", `{"q": "RANGE SERIES 'W0001' EPS 1"}]`, http.StatusBadRequest},
		{"trailing garbage", "POST", "/query", `{"q": "RANGE SERIES 'W0001' EPS 1"} x`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, fx.ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("HTTP %d, want %d", resp.StatusCode, tc.want)
			}
			var e server.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Fatalf("error body missing: decode err %v, message %q", err, e.Error)
			}
		})
	}
}

// TestStatusFollowsTheCause: the status of a failed write or read is its
// cause, not a phrase in its message, which quotes the caller's name: a
// second insert of a series named "unknown series" is a 409 and a fetch of
// a missing "duplicate series" a 404, as for any other name. The message
// itself is unchanged.
func TestStatusFollowsTheCause(t *testing.T) {
	fx := newFixture(t)
	values, _ := json.Marshal(fx.walks[0].Values)
	do := func(method, path, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, fx.ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e server.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error
	}
	for _, name := range []string{"unknown series", "W-dup"} {
		body := fmt.Sprintf(`{"name": %q, "values": %s}`, name, values)
		if got, msg := do("POST", "/series", body); got != http.StatusCreated {
			t.Fatalf("first insert of %q: HTTP %d (%s), want 201", name, got, msg)
		}
		got, msg := do("POST", "/series", body)
		if want := fmt.Sprintf("core: duplicate series name %q", name); got != http.StatusConflict || msg != want {
			t.Errorf("second insert of %q: HTTP %d %q, want 409 %q", name, got, msg, want)
		}
	}
	for _, name := range []string{"duplicate series", "NOPE"} {
		got, msg := do("GET", "/series/"+url.PathEscape(name), "")
		if want := fmt.Sprintf("tsq: unknown series %q", name); got != http.StatusNotFound || msg != want {
			t.Errorf("fetch of missing %q: HTTP %d %q, want 404 %q", name, got, msg, want)
		}
	}
}

func TestHealthAndStats(t *testing.T) {
	fx := newFixture(t)

	health, err := fx.client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Series != testCount || health.Length != testLength {
		t.Fatalf("health = %+v", health)
	}

	const stmt = "RANGE SERIES 'W0010' EPS 2 TRANSFORM mavg(20)"
	first, err := fx.client.Query(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Cached {
		t.Fatal("first execution reported cached")
	}
	second, err := fx.client.Query(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Stats.Cached {
		t.Fatal("repeat execution not served from cache")
	}

	stats, err := fx.client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Queries < 2 {
		t.Fatalf("stats.Queries = %d, want >= 2", stats.Queries)
	}
	if stats.CacheHits < 1 {
		t.Fatalf("stats.CacheHits = %d, want >= 1", stats.CacheHits)
	}
	if stats.Writes < 4 { // 3 singles + 1 batch from the fixture
		t.Fatalf("stats.Writes = %d, want >= 4", stats.Writes)
	}
	if stats.NodeAccesses <= 0 {
		t.Fatalf("stats.NodeAccesses = %d, want > 0", stats.NodeAccesses)
	}

}

func TestWritePurgesCache(t *testing.T) {
	fx := newFixture(t)
	const stmt = "NN SERIES 'W0011' K 4"
	if _, err := fx.client.Query(stmt); err != nil {
		t.Fatal(err)
	}
	repeat, err := fx.client.Query(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if !repeat.Stats.Cached {
		t.Fatal("repeat not cached")
	}
	// A statement is filed under its plan's invalidation test, like the typed
	// call it compiles to, so the write has to be one that can change the
	// answer: a shifted copy of the query series has the same normal form and
	// enters the top 4 at distance 0.
	extra := make([]float64, testLength)
	for i, v := range fx.walks[11].Values {
		extra[i] = v + 30
	}
	if err := fx.client.Insert("EXTRA", extra); err != nil {
		t.Fatal(err)
	}
	after, err := fx.client.Query(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if after.Stats.Cached {
		t.Fatal("cache survived a write")
	}
	if after.Matches[0].Name != "EXTRA" && after.Matches[1].Name != "EXTRA" {
		t.Fatalf("the fresh answer misses the inserted twin: %+v", after.Matches)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	fx := newFixture(t)
	resp, err := http.Get(fx.ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: HTTP %d, want %d", resp.StatusCode, http.StatusMethodNotAllowed)
	}
}

// TestConcurrentHTTPTraffic hammers the HTTP surface itself with mixed
// readers and writers; run under -race this exercises the full stack from
// mux to R*-tree.
func TestConcurrentHTTPTraffic(t *testing.T) {
	fx := newFixture(t)
	const (
		readers = 4
		writers = 2
		iters   = 30
	)
	errc := make(chan error, readers+writers)
	done := make(chan struct{})

	for r := 0; r < readers; r++ {
		go func(r int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("W%04d", (r*11+i)%30) // stable names only
				if _, err := fx.client.Query(
					fmt.Sprintf("RANGE SERIES '%s' EPS 2 TRANSFORM mavg(10)", name)); err != nil {
					errc <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if _, err := fx.client.Health(); err != nil {
					errc <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
		}(r)
	}
	for wr := 0; wr < writers; wr++ {
		go func(wr int) {
			defer func() { done <- struct{}{} }()
			vals := fx.walks[30+wr].Values
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("HOT%d", wr)
				if err := fx.client.Insert(name, vals); err != nil {
					errc <- fmt.Errorf("writer %d: %w", wr, err)
					return
				}
				if _, err := fx.client.Delete(name); err != nil {
					errc <- fmt.Errorf("writer %d: %w", wr, err)
					return
				}
			}
		}(wr)
	}
	for i := 0; i < readers+writers; i++ {
		<-done
	}
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
