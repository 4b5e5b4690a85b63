package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestTopKThresholdConcurrent drives one topK from several goroutines the
// way a sharded NN does — every worker reading the threshold lock-free
// before each offer — and checks what the readers may rely on: the published
// threshold is +Inf until the set fills, never rises, never falls below the
// k-th best actually held, and the set ends up the k smallest offered.
func TestTopKThresholdConcurrent(t *testing.T) {
	const k, workers, perWorker = 8, 4, 4000
	best := newTopK(k)
	if !math.IsInf(best.threshold(), 1) {
		t.Fatalf("empty set publishes threshold %v", best.threshold())
	}
	all := make([][]Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		all[w] = make([]Result, perWorker)
		for i := range all[w] {
			all[w][i] = Result{ID: int64(w*perWorker + i), Dist: rng.Float64() * 100}
		}
		wg.Add(1)
		go func(offers []Result) {
			defer wg.Done()
			last := math.Inf(1)
			for _, r := range offers {
				th := best.threshold()
				if th > last {
					t.Errorf("threshold rose from %v to %v", last, th)
					return
				}
				last = th
				best.offer(r)
			}
		}(all[w])
	}
	wg.Wait()
	var flat []Result
	for _, part := range all {
		flat = append(flat, part...)
	}
	sortResults(flat)
	got := best.appendResults(nil)
	for i := range got {
		if got[i] != flat[i] {
			t.Fatalf("rank %d: %v, want %v", i, got[i], flat[i])
		}
	}
	if th, kth := best.threshold(), got[k-1].Dist; th != math.Nextafter(kth, math.Inf(1)) {
		t.Fatalf("threshold %v for a k-th best of %v", th, kth)
	}
}
