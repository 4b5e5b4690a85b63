package flight

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNewIDUnique(t *testing.T) {
	const n = 10000
	seen := make(map[string]bool, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]string, 0, n/8)
			for i := 0; i < n/8; i++ {
				ids = append(ids, NewID())
			}
			mu.Lock()
			for _, id := range ids {
				if seen[id] {
					t.Errorf("duplicate ID %q", id)
				}
				seen[id] = true
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
}

func entry(id, kind, strategy, outcome string, when time.Time, elapsed time.Duration) Entry[int] {
	return Entry[int]{ID: id, Kind: kind, Strategy: strategy, Outcome: outcome, When: when, Elapsed: elapsed}
}

func TestRecorderRetainsRecentSlowestAndErrors(t *testing.T) {
	r := NewRecorder[int]()
	base := time.Now()

	// One very slow early entry must survive the recent ring's churn.
	r.Observe(entry("slow-1", "range", "index", OutcomeOK, base, time.Second))
	n := recentN + slowestN + 4
	for i := 0; i < n; i++ {
		r.Observe(entry(fmt.Sprintf("ok-%d", i), "range", "index", OutcomeOK,
			base.Add(time.Duration(i+1)*time.Millisecond), time.Duration(i+1)*time.Microsecond))
	}
	if _, ok := r.Get("slow-1"); !ok {
		t.Fatal("slowest entry evicted from slow list")
	}
	// The ring holds the last recentN; the fast entries that made the
	// slowest list are among them, so the one just before is gone.
	if _, ok := r.Get(fmt.Sprintf("ok-%d", n-recentN)); !ok {
		t.Fatal("oldest entry of the recent ring not retained")
	}
	if _, ok := r.Get(fmt.Sprintf("ok-%d", n-recentN-1)); ok {
		t.Fatal("old, fast entry should have been evicted")
	}
	if got := len(r.Traces(Filter{Kind: "range"})); got != recentN+1 {
		t.Fatalf("bucket retains %d entries, want the ring's %d plus slow-1", got, recentN)
	}

	// Errors always retained, in their own ring.
	r.Observe(entry("err-1", "nn", "", OutcomeError, base.Add(time.Hour), time.Millisecond))
	got, ok := r.Get("err-1")
	if !ok || got.Outcome != OutcomeError {
		t.Fatalf("error trace not retained: %+v ok=%v", got, ok)
	}

	// Filters narrow by kind and outcome; newest first.
	ts := r.Traces(Filter{Kind: "range", Outcome: OutcomeOK})
	if len(ts) == 0 {
		t.Fatal("no range/ok traces")
	}
	for i := 1; i < len(ts); i++ {
		if ts[i].When.After(ts[i-1].When) {
			t.Fatal("traces not newest-first")
		}
	}
	if n := len(r.Traces(Filter{Kind: "nosuch"})); n != 0 {
		t.Fatalf("kind filter leaked %d entries", n)
	}
}

// TestRecorderSlowestListBounded checks the slowest list keeps exactly
// the slowestN slowest of a bucket once the recent ring has moved on.
func TestRecorderSlowestListBounded(t *testing.T) {
	r := NewRecorder[int]()
	base := time.Now()
	for i := 0; i <= slowestN; i++ {
		r.Observe(entry(fmt.Sprintf("slow-%d", i), "nn", "index", OutcomeOK,
			base.Add(time.Duration(i)*time.Millisecond), time.Duration(i+1)*time.Second))
	}
	for i := 0; i < recentN; i++ {
		r.Observe(entry(fmt.Sprintf("fast-%d", i), "nn", "index", OutcomeOK,
			base.Add(time.Duration(slowestN+1+i)*time.Millisecond), time.Microsecond))
	}
	if _, ok := r.Get("slow-0"); ok {
		t.Fatal("the fastest of slowestN+1 slow entries survived")
	}
	for i := 1; i <= slowestN; i++ {
		if _, ok := r.Get(fmt.Sprintf("slow-%d", i)); !ok {
			t.Fatalf("slow-%d evicted from the slowest list", i)
		}
	}
	if w := r.WorstRecent(); len(w) != 1 || w[0].ID != fmt.Sprintf("slow-%d", slowestN) {
		t.Fatalf("WorstRecent = %+v, want slow-%d", w, slowestN)
	}
}

func TestRecorderWorstRecent(t *testing.T) {
	r := NewRecorder[int]()
	base := time.Now()
	r.Observe(entry("a", "range", "index", OutcomeOK, base, 5*time.Millisecond))
	r.Observe(entry("b", "range", "index", OutcomeOK, base.Add(time.Second), time.Millisecond))
	r.Observe(entry("c", "nn", "scan", OutcomeOK, base, 9*time.Millisecond))
	w := r.WorstRecent()
	if len(w) != 2 {
		t.Fatalf("WorstRecent returned %d buckets, want 2", len(w))
	}
	if w[0].Kind != "nn" || w[0].ID != "c" {
		t.Fatalf("bucket 0 = %+v, want nn/c", w[0])
	}
	if w[1].Kind != "range" || w[1].ID != "a" || w[1].Elapsed != 5*time.Millisecond {
		t.Fatalf("bucket 1 = %+v, want range worst a@5ms", w[1])
	}
}

func TestRecorderErrorRingBounded(t *testing.T) {
	r := NewRecorder[int]()
	base := time.Now()
	n := errorN + 3
	for i := 0; i < n; i++ {
		r.Observe(entry(fmt.Sprintf("e%d", i), "range", "", OutcomeError,
			base.Add(time.Duration(i)*time.Second), time.Millisecond))
	}
	errs := r.Traces(Filter{Outcome: OutcomeError})
	if len(errs) != errorN {
		t.Fatalf("retained %d errors, want %d", len(errs), errorN)
	}
	for i, e := range errs {
		if want := fmt.Sprintf("e%d", n-1-i); e.ID != want {
			t.Fatalf("error %d is %s, want %s (newest first, oldest three overwritten)", i, e.ID, want)
		}
	}
}

func TestRecorderBucketCap(t *testing.T) {
	r := NewRecorder[int]()
	base := time.Now()
	for i := 0; i < maxBuckets; i++ {
		r.Observe(entry(fmt.Sprintf("k%d", i), fmt.Sprintf("k%d", i), "", OutcomeOK, base, time.Millisecond))
	}
	r.Observe(entry("over", "over", "", OutcomeOK, base, time.Millisecond)) // over cap: dropped
	if _, ok := r.Get("over"); ok {
		t.Fatal("entry beyond bucket cap retained")
	}
	if _, ok := r.Get(fmt.Sprintf("k%d", maxBuckets-1)); !ok {
		t.Fatal("entry of the last bucket under the cap dropped")
	}
	// Errors bypass the bucket cap.
	r.Observe(entry("err", "over", "", OutcomeError, base, time.Millisecond))
	if _, ok := r.Get("err"); !ok {
		t.Fatal("error dropped by bucket cap")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder[int]()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				out := OutcomeOK
				if i%5 == 0 {
					out = OutcomeError
				}
				r.Observe(entry(NewID(), fmt.Sprintf("k%d", g%3), "s", out, time.Now(), time.Duration(i)))
				if i%17 == 0 {
					r.Traces(Filter{N: 5})
					r.WorstRecent()
				}
			}
		}(g)
	}
	wg.Wait()
}
