package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/feature"
	"repro/internal/plan"
	"repro/internal/transform"
)

func TestInsertBulkMatchesIncremental(t *testing.T) {
	walks := dataset.RandomWalks(300, 64, 5)
	names := make([]string, len(walks))
	values := make([][]float64, len(walks))
	for i, w := range walks {
		names[i] = w.Name
		values[i] = w.Values
	}

	inc, err := NewDB(64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		if _, err := inc.Insert(names[i], values[i]); err != nil {
			t.Fatal(err)
		}
	}
	bulk, err := NewDB(64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bulk.InsertBulk(names, values); err != nil {
		t.Fatal(err)
	}
	if err := bulk.Index().Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if bulk.Len() != inc.Len() {
		t.Fatalf("lengths differ: %d vs %d", bulk.Len(), inc.Len())
	}

	// Identical query answers on several query kinds.
	mavg := transform.MovingAverage(64, 10)
	for _, qn := range []string{"W0000", "W0123", "W0299"} {
		id, _ := inc.IDByName(qn)
		vals, _ := inc.Series(id)
		rq := RangeQuery{Values: vals, Eps: 4, Transform: mavg, BothSides: true}
		a, _, err := forcedRange(inc, rq, plan.Index)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := forcedRange(bulk, rq, plan.Index)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("query %s: %d vs %d results", qn, len(a), len(b))
		}
		for i := range a {
			if a[i].Name != b[i].Name || math.Abs(a[i].Dist-b[i].Dist) > 1e-9 {
				t.Fatalf("query %s result %d differs", qn, i)
			}
		}
	}
}

func TestInsertBulkValidation(t *testing.T) {
	db, _ := NewDB(64, Options{})
	good := make([]float64, 64)
	if err := db.InsertBulk([]string{"a", "b"}, [][]float64{good}); err == nil {
		t.Error("count mismatch should fail")
	}
	if err := db.InsertBulk([]string{""}, [][]float64{good}); err == nil {
		t.Error("empty name should fail")
	}
	if err := db.InsertBulk([]string{"a", "a"}, [][]float64{good, good}); err == nil {
		t.Error("duplicate name should fail")
	}
	if err := db.InsertBulk([]string{"a"}, [][]float64{{1, 2}}); err == nil {
		t.Error("wrong length should fail")
	}
	if _, err := db.Insert("x", good); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertBulk([]string{"a"}, [][]float64{good}); err == nil {
		t.Error("bulk insert into non-empty DB should fail")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, sc := range []feature.Schema{
		{Space: feature.Polar, K: 2, Moments: true},
		{Space: feature.Rect, K: 3, Moments: false},
	} {
		src, err := NewDB(64, Options{Schema: sc})
		if err != nil {
			t.Fatal(err)
		}
		walks := dataset.RandomWalks(120, 64, 9)
		for _, w := range walks {
			if _, err := src.Insert(w.Name, w.Values); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		n, err := src.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
		}
		got, err := ReadFrom(&buf, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != src.Len() || got.Length() != src.Length() {
			t.Fatalf("restored %d series of length %d", got.Len(), got.Length())
		}
		if got.Schema() != sc {
			t.Fatalf("restored schema %+v, want %+v", got.Schema(), sc)
		}
		// Raw series identical.
		for _, id := range src.IDs() {
			name := src.Name(id)
			gid, ok := got.IDByName(name)
			if !ok {
				t.Fatalf("series %q missing after round trip", name)
			}
			a, _ := src.Series(id)
			b, _ := got.Series(gid)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("series %q values differ at %d", name, i)
				}
			}
		}
		// Queries identical.
		vals, _ := src.Series(src.IDs()[7])
		rq := RangeQuery{Values: vals, Eps: 3, Transform: transform.Identity(64)}
		a, _, err := forcedRange(src, rq, plan.Index)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := forcedRange(got, rq, plan.Index)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("restored DB answers %d, original %d", len(b), len(a))
		}
	}
}

func TestReadFromErrors(t *testing.T) {
	if _, err := ReadFrom(strings.NewReader(""), Options{}); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := ReadFrom(strings.NewReader("not a snapshot at all"), Options{}); err == nil {
		t.Error("bad magic should fail")
	}
	// Truncated: valid header, then EOF.
	var buf bytes.Buffer
	src, _ := NewDB(64, Options{})
	w := dataset.RandomWalks(3, 64, 1)
	for _, s := range w {
		src.Insert(s.Name, s.Values)
	}
	src.WriteTo(&buf)
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadFrom(bytes.NewReader(trunc), Options{}); err == nil {
		t.Error("truncated snapshot should fail")
	}
}

func TestSnapshotHistoryRoundTrip(t *testing.T) {
	run := func(t *testing.T, eng Engine, read func(*bytes.Buffer) (Engine, error)) {
		walks := dataset.RandomWalks(80, 64, 11)
		for _, w := range walks {
			if _, err := eng.Insert(w.Name, w.Values); err != nil {
				t.Fatal(err)
			}
		}
		mavg := transform.MovingAverage(64, 8)
		for i := 0; i < 5; i++ {
			vals, _ := eng.Series(storeOf(eng).IDs()[i])
			pl, err := eng.PlanRange(RangeQuery{Values: vals, Eps: 2 + float64(i), Transform: mavg, BothSides: true}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := eng.ExecRangeInto(RangeQuery{Values: vals, Eps: 2 + float64(i), Transform: mavg, BothSides: true}, pl, nil); err != nil {
				t.Fatal(err)
			}
		}
		want := eng.PlanHistory()
		if len(want) != 5 {
			t.Fatalf("source history has %d records, want 5", len(want))
		}
		var buf bytes.Buffer
		if _, err := eng.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		have := got.PlanHistory()
		if len(have) != len(want) {
			t.Fatalf("restored history has %d records, want %d", len(have), len(want))
		}
		for i := range want {
			if have[i] != want[i] {
				t.Fatalf("record %d differs:\n got %+v\nwant %+v", i, have[i], want[i])
			}
		}
		// The restored ring keeps counting from the persisted sequence.
		vals, _ := got.Series(storeOf(got).IDs()[0])
		pl, err := got.PlanRange(RangeQuery{Values: vals, Eps: 2, Transform: mavg, BothSides: true}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := got.ExecRangeInto(RangeQuery{Values: vals, Eps: 2, Transform: mavg, BothSides: true}, pl, nil); err != nil {
			t.Fatal(err)
		}
		recs := got.PlanHistory()
		if last := recs[len(recs)-1].Seq; last != want[len(want)-1].Seq+1 {
			t.Fatalf("sequence after restore = %d, want %d", last, want[len(want)-1].Seq+1)
		}
	}
	t.Run("db", func(t *testing.T) {
		db, err := NewDB(64, Options{})
		if err != nil {
			t.Fatal(err)
		}
		run(t, db, func(buf *bytes.Buffer) (Engine, error) {
			return ReadEngine(buf, Options{}, 0)
		})
	})
	t.Run("sharded", func(t *testing.T) {
		s, err := NewStore(64, 3, Options{})
		if err != nil {
			t.Fatal(err)
		}
		run(t, s, func(buf *bytes.Buffer) (Engine, error) {
			return ReadEngine(buf, Options{}, 3)
		})
	})
}

// TestSnapshotCostsRoundTrip: the CCAL trailer carries the cost-model
// constants across a snapshot round-trip, so a restored store keeps the
// break-even points it priced plans with when written.
func TestSnapshotCostsRoundTrip(t *testing.T) {
	for label, shards := range map[string]int{"db": 1, "sharded": 3} {
		t.Run(label, func(t *testing.T) {
			eng := newTestEngine(t, 32, shards, Options{})
			for _, w := range dataset.RandomWalks(20, 32, 13) {
				if _, err := eng.Insert(w.Name, w.Values); err != nil {
					t.Fatal(err)
				}
			}
			want := plan.DefaultCosts()
			want.ScanUnit = 0.31
			want.NodeUnit = 1.25
			want.JoinScanUnit = 0.11
			storeOf(eng).tracker.SetCosts(want)

			var buf bytes.Buffer
			if _, err := eng.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := ReadEngine(&buf, Options{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if have := storeOf(got).tracker.Costs(); have != want {
				t.Fatalf("restored costs = %+v, want %+v", have, want)
			}
		})
	}
}

// TestSnapshotLengthOneShard pins the snapshot of a fixed 64-series store at
// one shard to its byte count (the benchmark's snapshot_bytes_per_user_byte
// has a 1 % bound). Re-pinned by PR 25 from TSQ3's 108,891 bytes: DERV now
// carries n/2+1 = 33 coefficients per series instead of 64 (496 bytes less
// each, 31,744 in all), and the six sections gain a 12-byte frame and a
// 4-byte checksum apiece in place of the four 4-byte tags. Re-pinned from
// 77,227 bytes when STR packing began tiling only the coefficient
// dimensions and rounding its slab count down: the 64 points pack into two
// leaves instead of three, so the SLAB section holds one node fewer.
func TestSnapshotLengthOneShard(t *testing.T) {
	data := dataset.RandomWalks(64, 64, 7)
	names, values := make([]string, len(data)), make([][]float64, len(data))
	for i, d := range data {
		names[i], values[i] = d.Name, d.Values
	}
	eng := newTestEngine(t, 64, 1, Options{})
	if err := eng.InsertBulk(names, values); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := eng.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const want = 77128
	if n != want || buf.Len() != want {
		t.Fatalf("one-shard snapshot is %d bytes (%d reported), want %d", buf.Len(), n, want)
	}
}

// TestSnapshotPreCostsTrailer: a snapshot ending after the history
// trailer (pre-CCAL format) still loads; the store then calibrates
// fresh.
func TestSnapshotPreCostsTrailer(t *testing.T) {
	db, err := NewDB(32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range dataset.RandomWalks(10, 32, 17) {
		if _, err := db.Insert(w.Name, w.Values); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := db.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Strip the CCAL section, the last one.
	secs := sectionsOf(t, buf.Bytes())
	if last := secs[len(secs)-1]; last.tag != "CCAL" || last.end != buf.Len() {
		t.Fatalf("the snapshot ends in %s, not CCAL", last.tag)
	}
	trimmed := buf.Bytes()[:secs[len(secs)-1].at]
	got, err := ReadEngine(bytes.NewBuffer(trimmed), Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != db.Len() {
		t.Fatalf("restored %d series, want %d", got.Len(), db.Len())
	}
	if got.(*DB).tracker.Costs() != plan.Calibrated() {
		t.Fatalf("pre-CCAL snapshot should leave the fresh calibration in place")
	}
}
