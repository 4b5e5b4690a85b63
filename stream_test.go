package tsq_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	tsq "repro"
	"repro/internal/dataset"
)

const (
	streamLen   = 32
	streamCount = 40
)

// streamWalks returns walks of total length; the first streamLen values
// seed the store, the rest arrive as appends.
func streamWalks(count, total int, seed int64) [][]float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([][]float64, count)
	for i := range out {
		w := make([]float64, total)
		v := 20 + 80*r.Float64()
		for j := range w {
			v += 8*r.Float64() - 4
			w[j] = v
		}
		out[i] = w
	}
	return out
}

func streamName(i int) string { return fmt.Sprintf("W%04d", i) }

// TestServerAppendParity is the tsq-layer acceptance parity test: a Server
// whose series were built by appends answers range, NN, and subsequence
// queries byte-identically to one whose series were inserted whole, at
// shard counts 1 and 4.
func TestServerAppendParity(t *testing.T) {
	walks := streamWalks(streamCount, streamLen+90, 1)
	for _, shards := range []int{1, 4} {
		streamed := tsq.NewServer(tsq.MustOpen(tsq.Options{Length: streamLen, Shards: shards}), tsq.ServerOptions{})
		whole := tsq.NewServer(tsq.MustOpen(tsq.Options{Length: streamLen, Shards: shards}), tsq.ServerOptions{})
		for i, w := range walks {
			if err := streamed.Insert(streamName(i), w[:streamLen]); err != nil {
				t.Fatal(err)
			}
			if err := whole.Insert(streamName(i), w[len(w)-streamLen:]); err != nil {
				t.Fatal(err)
			}
		}
		for i, w := range walks {
			rest := w[streamLen:]
			chunk := 1 + i%4
			for off := 0; off < len(rest); off += chunk {
				end := off + chunk
				if end > len(rest) {
					end = len(rest)
				}
				if err := streamed.Append(streamName(i), rest[off:end]); err != nil {
					t.Fatal(err)
				}
			}
		}

		q, err := whole.Series(streamName(2))
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			label string
			run   func(*tsq.Server) (any, error)
		}{
			{"range", func(s *tsq.Server) (any, error) {
				m, _, err := s.Range(q, 5, tsq.Identity())
				return m, err
			}},
			{"range-mavg-both", func(s *tsq.Server) (any, error) {
				m, _, err := s.Range(q, 4, tsq.MovingAverage(6), tsq.TransformBoth())
				return m, err
			}},
			{"nn", func(s *tsq.Server) (any, error) {
				m, _, err := s.NN(q, 6, tsq.Identity())
				return m, err
			}},
			{"subseq", func(s *tsq.Server) (any, error) {
				m, _, err := s.Subsequence(q[:10], 8)
				return m, err
			}},
		} {
			got, err := tc.run(streamed)
			if err != nil {
				t.Fatalf("shards=%d %s: streamed: %v", shards, tc.label, err)
			}
			want, err := tc.run(whole)
			if err != nil {
				t.Fatalf("shards=%d %s: whole: %v", shards, tc.label, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d %s: streamed diverges:\n got %+v\nwant %+v", shards, tc.label, got, want)
			}
		}
	}
}

// TestAppendCacheSelective pins the append path's cache semantics: an
// append provably outside a cached answer's search rectangle keeps the
// entry; an append that enters, touches a cached match, or touches the
// query series evicts it; join entries evict when a joined member moves.
func TestAppendCacheSelective(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s := tsq.NewServer(tsq.MustOpen(tsq.Options{Length: streamLen, Shards: shards}), tsq.ServerOptions{})
		// Two tight clusters of different *shape* (distances are between
		// normal forms, so different base levels alone would not separate
		// them): perturbations of two independent walks.
		shapes := streamWalks(2, streamLen, 99)
		mk := func(shape []float64, jitter int64) []float64 {
			r := rand.New(rand.NewSource(jitter))
			w := make([]float64, streamLen)
			for j := range w {
				w[j] = shape[j] + r.Float64()*0.05
			}
			return w
		}
		for i := 0; i < 6; i++ {
			if err := s.Insert(fmt.Sprintf("A%d", i), mk(shapes[0], int64(i))); err != nil {
				t.Fatal(err)
			}
			if err := s.Insert(fmt.Sprintf("B%d", i), mk(shapes[1], int64(100+i))); err != nil {
				t.Fatal(err)
			}
		}
		// The clusters must actually be distant for the test to mean
		// anything.
		if d, err := tsq.Distance(shapes[0], shapes[1], tsq.Identity()); err != nil || d < 5 {
			t.Fatalf("cluster shapes too close (d=%g, err=%v); pick another seed", d, err)
		}
		cached := func(run func() (tsq.Stats, error)) bool {
			t.Helper()
			st, err := run()
			if err != nil {
				t.Fatal(err)
			}
			return st.Cached
		}
		rangeByA0 := func() (tsq.Stats, error) {
			_, st, err := s.RangeByName("A0", 3, tsq.Identity())
			return st, err
		}

		if cached(rangeByA0) {
			t.Fatal("first query reported cached")
		}
		if !cached(rangeByA0) {
			t.Fatal("repeat query missed the cache")
		}
		// A small append to a far-away non-member keeps the entry.
		if err := s.Append("B5", []float64{shapes[1][0] + 0.3}); err != nil {
			t.Fatal(err)
		}
		if !cached(rangeByA0) {
			t.Fatal("irrelevant append evicted the cached range entry")
		}
		// Appending a window that lands inside the answer evicts it.
		a0, err := s.Series("A0")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append("B5", a0); err != nil {
			t.Fatal(err)
		}
		if cached(rangeByA0) {
			t.Fatal("entering append kept the cached range entry")
		}
		matches, _, err := s.RangeByName("A0", 3, tsq.Identity())
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range matches {
			found = found || m.Name == "B5"
		}
		if !found {
			t.Fatal("B5 missing from the refreshed answer after entering append")
		}
		// An append to a cached match always evicts (the matches call above
		// shares the cache key, so the entry is warm again).
		if !cached(rangeByA0) {
			t.Fatal("warming query missed")
		}
		if err := s.Append("A1", []float64{50.5}); err != nil { // A1 is a member
			t.Fatal(err)
		}
		if cached(rangeByA0) {
			t.Fatal("append to a cached match kept the entry")
		}
		// An append to the query series always evicts.
		if !cached(rangeByA0) {
			t.Fatal("warming query missed")
		}
		if err := s.Append("A0", []float64{50.5}); err != nil {
			t.Fatal(err)
		}
		if cached(rangeByA0) {
			t.Fatal("append to the query series kept the entry")
		}
		// Join entries carry the whole-store dependency predicate: an
		// append to a series that appears in a cached pair evicts. (B5 is
		// a member — its window is a0's by now, deep inside the A
		// cluster.)
		join := func() (tsq.Stats, error) {
			_, st, err := s.SelfJoin(1, tsq.Identity(), tsq.JoinScanEarlyAbandon)
			return st, err
		}
		if cached(join) {
			t.Fatal("first join reported cached")
		}
		if !cached(join) {
			t.Fatal("repeat join missed the cache")
		}
		if err := s.Append("B5", []float64{5001}); err != nil {
			t.Fatal(err)
		}
		if cached(join) {
			t.Fatal("append to a joined member kept the cached join entry")
		}
		// An insert goes through the same predicate as an append. (Warm
		// first: the join-section append evicted the range entry too, B5
		// being a member by then.) Until the filter counted each indexed
		// coefficient twice this test inserted a B-shaped series and saw the
		// entry go — at radius 3 the far cluster's feature point still fell
		// in the rectangle; at 3/√2 it misses, which proves the series out
		// of reach, and the entry rightly stays. An A-shaped insert lands
		// inside the answer and evicts.
		if _, err := rangeByA0(); err != nil {
			t.Fatal(err)
		}
		if !cached(rangeByA0) {
			t.Fatal("warming query missed")
		}
		if err := s.Insert("C0", mk(shapes[1], 55)); err != nil {
			t.Fatal(err)
		}
		if !cached(rangeByA0) {
			t.Fatal("insert into the far cluster evicted the cached range entry")
		}
		if err := s.Insert("C1", mk(shapes[0], 56)); err != nil {
			t.Fatal(err)
		}
		if cached(rangeByA0) {
			t.Fatal("insert into the answer's cluster kept the cached range entry")
		}
	}
}

// TestMonitorRangeEvents drives a range monitor end to end over the real
// engine: snapshot, enter on approach, distance updates without events,
// leave on divergence, leave on delete.
func TestMonitorRangeEvents(t *testing.T) {
	walks := streamWalks(10, streamLen, 3)
	s := tsq.NewServer(tsq.MustOpen(tsq.Options{Length: streamLen, Shards: 2}), tsq.ServerOptions{})
	for i, w := range walks {
		if err := s.Insert(streamName(i), w); err != nil {
			t.Fatal(err)
		}
	}
	q, err := s.Series(streamName(0))
	if err != nil {
		t.Fatal(err)
	}
	id, initial, err := s.MonitorRangeByName(streamName(0), 2, tsq.Identity())
	if err != nil {
		t.Fatal(err)
	}
	if len(initial) == 0 || initial[0].Name != streamName(0) {
		t.Fatalf("initial members %v should contain the query series at distance 0", initial)
	}
	w, err := s.Watch(id, -1, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Cancel()
	if !reflect.DeepEqual(w.Snapshot, initial) {
		t.Fatalf("watch snapshot %v != initial members %v", w.Snapshot, initial)
	}

	// Make W0005 identical to the query: it must enter at distance 0.
	if err := s.Append(streamName(5), q); err != nil {
		t.Fatal(err)
	}
	ev := <-w.Events
	if ev.Kind != "enter" || ev.Name != streamName(5) || ev.Distance != 0 {
		t.Fatalf("event = %+v, want enter W0005 at 0", ev)
	}
	// Drive it far away: leave.
	far := make([]float64, streamLen)
	for i := range far {
		far[i] = 9000 + 13*float64(i%5)
	}
	if err := s.Append(streamName(5), far); err != nil {
		t.Fatal(err)
	}
	ev = <-w.Events
	if ev.Kind != "leave" || ev.Name != streamName(5) {
		t.Fatalf("event = %+v, want leave W0005", ev)
	}
	// Deleting a member emits leave.
	if !s.Delete(streamName(0)) {
		t.Fatal("delete failed")
	}
	ev = <-w.Events
	if ev.Kind != "leave" || ev.Name != streamName(0) {
		t.Fatalf("event = %+v, want leave W0000", ev)
	}
	got, err := s.MonitorMembers(id)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := s.Range(q, 2, tsq.Identity())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, fresh) {
		t.Fatalf("members after churn = %v, fresh answer = %v", got, fresh)
	}
	if !s.Unmonitor(id) {
		t.Fatal("Unmonitor failed")
	}
	if _, ok := <-w.Events; ok {
		t.Fatal("events channel survived Unmonitor")
	}
}

// TestMonitorNNEvents: an NN monitor tracks the top-k as appends displace
// neighbors.
func TestMonitorNNEvents(t *testing.T) {
	s := tsq.NewServer(tsq.MustOpen(tsq.Options{Length: streamLen}), tsq.ServerOptions{})
	walks := streamWalks(8, streamLen, 5)
	for i, w := range walks {
		if err := s.Insert(streamName(i), w); err != nil {
			t.Fatal(err)
		}
	}
	q, _ := s.Series(streamName(0))
	id, initial, err := s.MonitorNN(q, 3, tsq.Identity())
	if err != nil {
		t.Fatal(err)
	}
	if len(initial) != 3 {
		t.Fatalf("initial top-3 has %d members", len(initial))
	}
	w, err := s.Watch(id, -1, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Cancel()

	// Find a series outside the top-3 and make it identical to the query.
	inTop := map[string]bool{}
	for _, m := range initial {
		inTop[m.Name] = true
	}
	outsider := ""
	for i := range walks {
		if !inTop[streamName(i)] {
			outsider = streamName(i)
			break
		}
	}
	if err := s.Append(outsider, q); err != nil {
		t.Fatal(err)
	}
	ev1, ev2 := <-w.Events, <-w.Events
	if ev1.Kind != "leave" {
		t.Fatalf("first event = %+v, want a leave", ev1)
	}
	if ev2.Kind != "enter" || ev2.Name != outsider || ev2.Distance != 0 {
		t.Fatalf("second event = %+v, want enter %s at 0", ev2, outsider)
	}
	members, err := s.MonitorMembers(id)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := s.NN(q, 3, tsq.Identity())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(members, fresh) {
		t.Fatalf("monitor members %v != fresh NN answer %v", members, fresh)
	}
}

// TestStreamStress is the -race stress test: concurrent appenders,
// watchers, queriers, and churn writers against a sharded Server with
// registered monitors. Afterwards every monitor's membership must equal a
// fresh evaluation of its standing query.
func TestStreamStress(t *testing.T) {
	walks := streamWalks(60, streamLen+200, 11)
	s := tsq.NewServer(tsq.MustOpen(tsq.Options{Length: streamLen, Shards: 4}), tsq.ServerOptions{})
	for i, w := range walks {
		if err := s.Insert(streamName(i), w[:streamLen]); err != nil {
			t.Fatal(err)
		}
	}
	q0, _ := s.Series(streamName(0))
	q1, _ := s.Series(streamName(1))
	idRange, _, err := s.MonitorRange(q0, 6, tsq.MovingAverage(5))
	if err != nil {
		t.Fatal(err)
	}
	idNN, _, err := s.MonitorNN(q1, 5, tsq.Identity())
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	stopWatch := make(chan struct{})

	// Watchers drain events until told to stop.
	for _, mid := range []int64{idRange, idNN} {
		w, err := s.Watch(mid, -1, 32)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w *tsq.Watch) {
			defer wg.Done()
			for {
				select {
				case _, ok := <-w.Events:
					if !ok {
						return
					}
				case <-stopWatch:
					w.Cancel()
					return
				}
			}
		}(w)
	}

	// Appenders stream each walk's tail.
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := g; i < len(walks); i += 4 {
				rest := walks[i][streamLen:]
				for off := 0; off < len(rest); off += 5 {
					end := off + 5
					if end > len(rest) {
						end = len(rest)
					}
					if err := s.Append(streamName(i), rest[off:end]); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	// Churn writer: insert/delete cycles.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < 30; i++ {
			name := fmt.Sprintf("churn-%d", i)
			if err := s.Insert(name, walks[i%len(walks)][:streamLen]); err != nil {
				errs <- err
				return
			}
			if err := s.Append(name, walks[(i+1)%len(walks)][:streamLen]); err != nil {
				errs <- err
				return
			}
			if !s.Delete(name) {
				errs <- fmt.Errorf("churn series %s vanished", name)
				return
			}
		}
	}()
	// Queriers mix cached reads.
	for g := 0; g < 3; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 50; i++ {
				name := streamName((g*17 + i) % len(walks))
				var err error
				if i%2 == 0 {
					_, _, err = s.RangeByName(name, 4, tsq.MovingAverage(5))
				} else {
					_, _, err = s.NNByName(name, 3, tsq.Identity())
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}

	writers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiescent store: monitor membership must equal a fresh evaluation.
	members, err := s.MonitorMembers(idRange)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := s.Range(q0, 6, tsq.MovingAverage(5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(members, fresh) {
		t.Fatalf("range monitor drifted from the store:\n monitor %v\n   fresh %v", members, fresh)
	}
	members, err = s.MonitorMembers(idNN)
	if err != nil {
		t.Fatal(err)
	}
	freshNN, _, err := s.NN(q1, 5, tsq.Identity())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(members, freshNN) {
		t.Fatalf("nn monitor drifted from the store:\n monitor %v\n   fresh %v", members, freshNN)
	}

	close(stopWatch)
	wg.Wait()
	if st := s.Stats(); st.Appends == 0 || st.Monitors != 2 {
		t.Fatalf("stats = %+v, want appends > 0 and 2 monitors", st)
	}
}

// TestAppendedPointOnTheBoundary: the feature point an append commits is
// also what monitors and cached answers are tested against
// (Prefilter.Hit on AppendInfo.Point). On internal/core's boundary data — a
// walk and its first-harmonic twin, whose Lemma 1 bound holds with equality
// — with eps on the twin's own distance and every series slid to its window
// from 1e5-scale junk, the append that completes the twin must emit its
// enter and must evict the walk's cached answer: the point has to be the
// one the final window extracts to, to the last bit. T001 sits 0.12 from
// W001, where the index's partial-distance prune is what has no margin;
// T005 sits 1e-3 from W005, where the search rectangle has none either.
func TestAppendedPointOnTheBoundary(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(20260927)) // core's mirrorSeed: these are boundaryData's first walks
	final := map[string][]float64{}
	for i := 0; i < 6; i++ {
		final[fmt.Sprintf("W%03d", i)] = dataset.RandomWalk(rng, n)
	}
	final["T001"] = dataset.HarmonicTwin(final["W001"], 1e-2)
	final["T005"] = dataset.HarmonicTwin(final["W005"], 1e-4)
	pairs := []struct{ walk, twin string }{{"W001", "T001"}, {"W005", "T005"}}

	whole := tsq.NewServer(tsq.MustOpen(tsq.Options{Length: n}), tsq.ServerOptions{})
	for name, w := range final {
		if err := whole.Insert(name, w); err != nil {
			t.Fatal(err)
		}
	}
	eps := map[string]float64{}
	for _, p := range pairs {
		nn, _, err := whole.NNByName(p.walk, 2, tsq.Identity())
		if err != nil || len(nn) != 2 || nn[1].Name != p.twin {
			t.Fatalf("%s's nearest neighbours are %v (%v), want itself and %s", p.walk, nn, err, p.twin)
		}
		eps[p.walk] = nn[1].Distance
	}

	for _, shards := range []int{1, 4} {
		s := tsq.NewServer(tsq.MustOpen(tsq.Options{Length: n, Shards: shards}), tsq.ServerOptions{})
		junk := func(count int) []float64 {
			out := make([]float64, count)
			for i := range out {
				out[i] = 1e5 * rng.NormFloat64()
			}
			return out
		}
		slide := func(name string, points []float64) {
			t.Helper()
			for _, x := range points {
				if err := s.Append(name, []float64{x}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for name := range final {
			if err := s.Insert(name, junk(n)); err != nil {
				t.Fatal(err)
			}
		}
		// Everyone reaches their window but the twins, who stop one point
		// short of it.
		for name, w := range final {
			if name[0] == 'T' {
				w = w[:n-1]
			}
			slide(name, append(junk(n), w...))
		}
		for _, p := range pairs {
			label := fmt.Sprintf("shards=%d %s", shards, p.walk)
			e := eps[p.walk]
			id, initial, err := s.MonitorRangeByName(p.walk, e, tsq.Identity())
			if err != nil || len(initial) != 1 || initial[0].Name != p.walk {
				t.Fatalf("%s: initial members %v (%v), want %s alone", label, initial, err, p.walk)
			}
			w, err := s.Watch(id, -1, 16)
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range []bool{false, true} {
				if _, st, err := s.RangeByName(p.walk, e, tsq.Identity()); err != nil || st.Cached != want {
					t.Fatalf("%s: read %d of its range: cached %v (%v)", label, i, st.Cached, err)
				}
			}

			slide(p.twin, final[p.twin][n-1:])
			// Membership is settled when Append returns; the event follows
			// it through the watch's forwarder.
			if members, err := s.MonitorMembers(id); err != nil || len(members) != 2 || members[1].Name != p.twin {
				t.Fatalf("%s: %s reached its window at distance %v = eps and the monitor holds %v (%v)", label, p.twin, e, members, err)
			}
			if ev := <-w.Events; ev.Kind != "enter" || ev.Name != p.twin || ev.Distance != e {
				t.Fatalf("%s: event %+v, want enter %s at %v", label, ev, p.twin, e)
			}
			matches, st, err := s.RangeByName(p.walk, e, tsq.Identity())
			if err != nil || st.Cached || len(matches) != 2 || matches[1].Name != p.twin {
				t.Fatalf("%s: after %s arrived the range answers %v (cached %v, %v), want a fresh answer with both", label, p.twin, matches, st.Cached, err)
			}
			w.Cancel()
		}
	}
}
