package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/plan"
	"repro/internal/transform"
)

// buildParityStores loads the same batch into a one-shard store and
// stores of each requested width, via plain inserts so IDs are assigned
// identically everywhere.
func buildParityStores(t *testing.T, count, length int, widths []int) (*DB, []*Store) {
	t.Helper()
	data := dataset.RandomWalks(count, length, 42)
	db, err := NewDB(length, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var shs []*Store
	for _, w := range widths {
		s, err := NewStore(length, w, Options{})
		if err != nil {
			t.Fatal(err)
		}
		shs = append(shs, s)
	}
	for _, d := range data {
		if _, err := db.Insert(d.Name, d.Values); err != nil {
			t.Fatal(err)
		}
		for _, s := range shs {
			if _, err := s.Insert(d.Name, d.Values); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db, shs
}

// mutateParityStores applies the same deletes and updates everywhere, so
// parity holds on stores that have seen churn (swap-deleted ID lists,
// reassigned IDs).
func mutateParityStores(t *testing.T, db *DB, shs []*Store, count, length int) {
	t.Helper()
	for i := 0; i < count; i += 7 {
		name := fmt.Sprintf("W%04d", i)
		if !db.Delete(name) {
			t.Fatalf("delete %s missing in unsharded store", name)
		}
		for _, s := range shs {
			if !s.Delete(name) {
				t.Fatalf("delete %s missing in sharded store", name)
			}
		}
	}
	rng := rand.New(rand.NewSource(99))
	for i := 1; i < count; i += 11 {
		if i%7 == 0 {
			continue // deleted above
		}
		name := fmt.Sprintf("W%04d", i)
		vals := make([]float64, length)
		v := 50.0
		for j := range vals {
			v += rng.Float64()*8 - 4
			vals[j] = v
		}
		if _, err := db.Update(name, vals); err != nil {
			t.Fatal(err)
		}
		for _, s := range shs {
			if _, err := s.Update(name, vals); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func queryValues(length int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, length)
	v := 60.0
	for i := range vals {
		v += rng.Float64()*8 - 4
		vals[i] = v
	}
	return vals
}

// checkParity asserts that every Sharded store returns exactly the
// unsharded slice.
func checkParity[T any](t *testing.T, label string, db *DB, shs []*Store, run func(Engine) (T, error)) {
	t.Helper()
	want, err := run(db)
	if err != nil {
		t.Fatalf("%s: unsharded: %v", label, err)
	}
	for _, s := range shs {
		got, err := run(s)
		if err != nil {
			t.Fatalf("%s: %d shards: %v", label, s.Shards(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d shards diverges from unsharded:\n got %+v\nwant %+v", label, s.Shards(), got, want)
		}
	}
}

func TestShardedParityAllQueryKinds(t *testing.T) {
	const (
		count  = 120
		length = 32
	)
	widths := []int{1, 2, 8}
	db, shs := buildParityStores(t, count, length, widths)
	mutateParityStores(t, db, shs, count, length)

	if got, want := shs[1].Len(), db.Len(); got != want {
		t.Fatalf("Len: sharded %d, unsharded %d", got, want)
	}
	if !reflect.DeepEqual(shs[1].IDs(), db.IDs()) {
		t.Fatalf("IDs diverge: sharded %v unsharded %v", shs[1].IDs(), db.IDs())
	}

	id := transform.Identity(length)
	mavg := transform.MovingAverage(length, 5)
	revMavg, _ := transform.Reverse(length).Compose(mavg)
	q := queryValues(length, 7)

	rangeCases := []struct {
		label string
		rq    RangeQuery
	}{
		{"range/identity", RangeQuery{Values: q, Eps: 8, Transform: id}},
		{"range/mavg", RangeQuery{Values: q, Eps: 6, Transform: mavg}},
		{"range/rev-mavg", RangeQuery{Values: q, Eps: 6, Transform: revMavg}},
		{"range/both-sides", RangeQuery{Values: q, Eps: 6, Transform: mavg, BothSides: true}},
		{"range/warp", RangeQuery{Values: queryValues(2*length, 8), Eps: 8, Transform: transform.Warp(length, 2), WarpFactor: 2}},
		{"range/force-transform", RangeQuery{Values: q, Eps: 8, Transform: id, ForceTransform: true}},
	}
	for _, c := range rangeCases {
		rq := c.rq
		checkParity(t, c.label+"/indexed", db, shs, func(e Engine) ([]Result, error) {
			r, _, err := forcedRange(e, rq, plan.Index)
			return r, err
		})
		checkParity(t, c.label+"/scanfreq", db, shs, func(e Engine) ([]Result, error) {
			r, _, err := forcedRange(e, rq, plan.ScanFreq)
			return r, err
		})
		checkParity(t, c.label+"/scantime", db, shs, func(e Engine) ([]Result, error) {
			r, _, err := forcedRange(e, rq, plan.ScanTime)
			return r, err
		})
	}

	nnCases := []struct {
		label string
		nq    NNQuery
	}{
		{"nn/k1", NNQuery{Values: q, K: 1, Transform: id}},
		{"nn/k7", NNQuery{Values: q, K: 7, Transform: id}},
		{"nn/mavg", NNQuery{Values: q, K: 5, Transform: mavg}},
		{"nn/both-sides", NNQuery{Values: q, K: 5, Transform: mavg, BothSides: true}},
		{"nn/warp", NNQuery{Values: queryValues(2*length, 8), K: 4, Transform: transform.Warp(length, 2), WarpFactor: 2}},
		{"nn/k-over-size", NNQuery{Values: q, K: count * 2, Transform: id}},
	}
	for _, c := range nnCases {
		nq := c.nq
		checkParity(t, c.label+"/indexed", db, shs, func(e Engine) ([]Result, error) {
			r, _, err := forcedNN(e, nq, plan.Index)
			return r, err
		})
		checkParity(t, c.label+"/scan", db, shs, func(e Engine) ([]Result, error) {
			r, _, err := forcedNN(e, nq, plan.ScanFreq)
			return r, err
		})
	}

	for _, m := range []JoinMethod{JoinScanNaive, JoinScanEarlyAbandon, JoinIndexPlain, JoinIndexTransform} {
		m := m
		checkParity(t, fmt.Sprintf("selfjoin/%s", m), db, shs, func(e Engine) ([]JoinPair, error) {
			p, _, err := e.SelfJoin(3.5, mavg, m)
			return p, err
		})
	}
	checkParity(t, "join-two-sided", db, shs, func(e Engine) ([]JoinPair, error) {
		p, _, err := forcedJoinTwoSided(e, 3.0, revMavg, mavg)
		return p, err
	})

	sub := queryValues(length/2, 9)
	checkParity(t, "subsequence", db, shs, func(e Engine) ([]SubseqResult, error) {
		r, _, err := e.SubsequenceScan(sub, 40)
		return r, err
	})
}

// TestShardedParityBulkLoad checks that bulk loading assigns the same
// global IDs as the unsharded bulk load, and queries agree.
func TestShardedParityBulkLoad(t *testing.T) {
	const (
		count  = 90
		length = 32
	)
	data := dataset.RandomWalks(count, length, 5)
	names := make([]string, count)
	values := make([][]float64, count)
	for i, d := range data {
		names[i], values[i] = d.Name, d.Values
	}
	db, err := NewDB(length, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.InsertBulk(names, values); err != nil {
		t.Fatal(err)
	}
	var shs []*Store
	for _, w := range []int{1, 2, 8} {
		s, err := NewStore(length, w, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.InsertBulk(names, values); err != nil {
			t.Fatal(err)
		}
		shs = append(shs, s)
	}
	if !reflect.DeepEqual(shs[2].IDs(), db.IDs()) {
		t.Fatalf("bulk-load IDs diverge")
	}
	q := queryValues(length, 3)
	checkParity(t, "bulk/range", db, shs, func(e Engine) ([]Result, error) {
		r, _, err := forcedRange(e, RangeQuery{Values: q, Eps: 8, Transform: transform.Identity(length)}, plan.Index)
		return r, err
	})
	checkParity(t, "bulk/nn", db, shs, func(e Engine) ([]Result, error) {
		r, _, err := forcedNN(e, NNQuery{Values: q, K: 5, Transform: transform.Identity(length)}, plan.Index)
		return r, err
	})
}

// TestShardedInsertBulkAllOrNothing checks a bad batch loads nothing into
// any shard — no ghost series behind an empty catalog — and a corrected
// retry succeeds.
func TestShardedInsertBulkAllOrNothing(t *testing.T) {
	const length = 32
	s, err := NewStore(length, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := queryValues(length, 1)
	names := []string{"a", "b", "a"} // duplicate
	values := [][]float64{good, good, good}
	if err := s.InsertBulk(names, values); err == nil {
		t.Fatal("duplicate batch loaded without error")
	}
	if s.Len() != 0 {
		t.Fatalf("failed bulk load left %d series", s.Len())
	}
	res, _, err := forcedRange(s, RangeQuery{Values: good, Eps: 100, Transform: transform.Identity(length)}, plan.Index)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("failed bulk load left ghost series in query results: %+v", res)
	}
	if err := s.InsertBulk([]string{"a", "b"}, [][]float64{good, queryValues(length, 2)}); err != nil {
		t.Fatalf("retry after failed bulk load: %v", err)
	}
	if s.Len() != 2 {
		t.Fatalf("retry loaded %d series, want 2", s.Len())
	}
}

// TestShardedSnapshotRoundTrip writes a four-shard store's snapshot and
// loads it back at the recorded width, a different width, and at one shard
// — all must answer identically. A one-shard store's snapshot must load
// into a four-shard store the same way.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	const (
		count  = 60
		length = 32
	)
	db, shs := buildParityStores(t, count, length, []int{4})
	src := shs[0]

	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	recorded, err := ReadEngine(bytes.NewReader(snap), Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := recorded.(*Store); !ok || s.Shards() != 4 {
		t.Fatalf("recorded load: want 4-shard store, got %T", recorded)
	}
	resharded, err := ReadEngine(bytes.NewReader(snap), Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	single, err := ReadEngine(bytes.NewReader(snap), Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := single.(*DB); !ok {
		t.Fatalf("single load: want *DB, got %T", single)
	}

	// A one-shard store's snapshot into a sharded store.
	var v1 bytes.Buffer
	if _, err := db.WriteTo(&v1); err != nil {
		t.Fatal(err)
	}
	fromV1, err := ReadEngine(bytes.NewReader(v1.Bytes()), Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	v1Recorded, err := ReadEngine(bytes.NewReader(v1.Bytes()), Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v1Recorded.(*DB); !ok {
		t.Fatalf("one-shard default load: want *DB, got %T", v1Recorded)
	}

	q := queryValues(length, 11)
	want, _, err := forcedRange(db, RangeQuery{Values: q, Eps: 8, Transform: transform.Identity(length)}, plan.Index)
	if err != nil {
		t.Fatal(err)
	}
	for label, e := range map[string]Engine{
		"recorded": recorded, "resharded": resharded, "single": single,
		"fromV1": fromV1, "v1Recorded": v1Recorded,
	} {
		got, _, err := forcedRange(e, RangeQuery{Values: q, Eps: 8, Transform: transform.Identity(length)}, plan.Index)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s snapshot load diverges:\n got %+v\nwant %+v", label, got, want)
		}
	}
}

// TestShardedNNSharedBound checks the fan-out shares the k-th-best bound:
// the total verified candidates across shards must stay well below the
// store size when the index search is selective.
func TestShardedNNSharedBound(t *testing.T) {
	const (
		count  = 400
		length = 64
	)
	data := dataset.RandomWalks(count, length, 21)
	s, err := NewStore(length, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, count)
	values := make([][]float64, count)
	for i, d := range data {
		names[i], values[i] = d.Name, d.Values
	}
	if err := s.InsertBulk(names, values); err != nil {
		t.Fatal(err)
	}
	vals, err := s.Series(0)
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := forcedNN(s, NNQuery{Values: vals, K: 3, Transform: transform.Identity(length)}, plan.Index)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("want 3 results, got %d", len(res))
	}
	if res[0].ID != 0 || res[0].Dist > 1e-9 {
		t.Fatalf("self should be nearest, got %+v", res[0])
	}
	if st.Candidates >= count {
		t.Errorf("shared bound ineffective: %d candidates for %d series", st.Candidates, count)
	}
}

// TestShardedConcurrentReadsWrites hammers one store directly with
// concurrent queries and writes, at one shard and at four; run with -race.
func TestShardedConcurrentReadsWrites(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) { hammerStore(t, shards) })
	}
}

func hammerStore(t *testing.T, shards int) {
	const (
		count  = 64
		length = 32
		iters  = 60
	)
	data := dataset.RandomWalks(count, length, 13)
	s, err := NewStore(length, shards, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range data {
		if _, err := s.Insert(d.Name, d.Values); err != nil {
			t.Fatal(err)
		}
	}
	q := queryValues(length, 17)
	id := transform.Identity(length)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0:
					if _, _, err := forcedRange(s, RangeQuery{Values: q, Eps: 6, Transform: id}, plan.Index); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, _, err := forcedNN(s, NNQuery{Values: q, K: 3, Transform: id}, plan.Index); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, _, err := s.SelfJoin(2, id, JoinIndexTransform); err != nil {
						errs <- err
						return
					}
				case 3:
					if _, _, err := s.SubsequenceScan(q[:8], 30); err != nil {
						errs <- err
						return
					}
				}
			}
		}(r)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("churn-%d-%d", w, i)
				vals := queryValues(length, int64(100+w*iters+i))
				if _, err := s.Insert(name, vals); err != nil {
					errs <- err
					return
				}
				if _, err := s.Append(data[(w*31+i)%count].Name, vals[:2]); err != nil {
					errs <- err
					return
				}
				if i%2 == 0 {
					if !s.Delete(name) {
						errs <- fmt.Errorf("lost %s", name)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s.Len() == 0 || s.Len() > count+2*iters {
		t.Fatalf("implausible store size %d", s.Len())
	}
}
