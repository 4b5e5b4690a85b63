package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/plan"
	"repro/internal/transform"
)

// familyWalks returns count random walks of the given length in families of
// four: a walk and three copies of it, each off by a small random walk of
// its own — every series has near neighbours and a crowd of far ones.
func familyWalks(count, length int, seed int64) ([]string, [][]float64) {
	r := rand.New(rand.NewSource(seed))
	names, values := make([]string, count), make([][]float64, count)
	var base []float64
	for i := range values {
		if i%4 == 0 {
			base = dataset.RandomWalk(r, length)
		}
		s, drift := make([]float64, length), 0.0
		for j, v := range base {
			if i%4 != 0 {
				drift += r.NormFloat64() * 0.5
			}
			s[j] = v + drift
		}
		names[i], values[i] = fmt.Sprintf("F%05d", i), s
	}
	return names, values
}

// TestKIndexReach pins how much of a bulk-loaded k-index the by-name reads
// visit: 100 NN reads at k = 10 and 100 range reads at eps = 2 over 4,000
// family walks of length 64, each with the stored series' own prep, forced
// through the index at one shard. The candidates a read verifies are fixed
// by the filter and the walk, not by the tree's shape, so their totals must
// stay exactly as recorded. The nodes are the tree's doing and may only
// fall: they were recorded when STR began tiling only the coefficient
// dimensions and filling its nodes (tiling all six, half-full leaves, the
// same reads visited 13,314 and 7,272 nodes).
//
// The NN candidates were re-recorded, 50,906 → 52,861, when the walk began
// verifying a leaf's items as it expands the leaf instead of queueing them
// beside the nodes: an item is now checked as soon as its leaf is expanded,
// before the nearer items of leaves still queued can tighten the k-th best,
// so 3.8 % more items clear it. The nodes did not move.
func TestKIndexReach(t *testing.T) {
	const (
		length, count, reads, seed    = 64, 4000, 100, 20261015
		nnCandidates, rangeCandidates = 52861, 5111
		nnNodes, rangeNodes           = 5067, 2535
	)
	t.Logf("seed %d", seed)
	names, values := familyWalks(count, length, seed)
	eng := newTestEngine(t, length, 1, Options{})
	if err := eng.InsertBulk(names, values); err != nil {
		t.Fatal(err)
	}
	s := storeOf(eng)
	r := rand.New(rand.NewSource(seed + 1))
	identity := transform.Identity(length)
	var nn, rg ExecStats
	for i := 0; i < reads; i++ {
		at := r.Intn(count)
		id, _ := s.IDByName(names[at])
		prep, ok := s.QueryPrep(id)
		if !ok {
			t.Fatalf("no prep for %s", names[at])
		}
		_, st, err := forcedNN(eng, NNQuery{Values: values[at], K: 10, Transform: identity, Prep: prep}, plan.Index)
		if err != nil {
			t.Fatal(err)
		}
		nn.Candidates, nn.NodeAccesses = nn.Candidates+st.Candidates, nn.NodeAccesses+st.NodeAccesses
		_, st, err = forcedRange(eng, RangeQuery{Values: values[at], Eps: 2, Transform: identity, Prep: prep}, plan.Index)
		if err != nil {
			t.Fatal(err)
		}
		rg.Candidates, rg.NodeAccesses = rg.Candidates+st.Candidates, rg.NodeAccesses+st.NodeAccesses
	}
	t.Logf("NN: %d candidates, %d nodes; range: %d candidates, %d nodes", nn.Candidates, nn.NodeAccesses, rg.Candidates, rg.NodeAccesses)
	if nn.Candidates != nnCandidates || rg.Candidates != rangeCandidates {
		t.Errorf("candidates: NN %d, range %d; recorded %d and %d", nn.Candidates, rg.Candidates, nnCandidates, rangeCandidates)
	}
	if nn.NodeAccesses > nnNodes || rg.NodeAccesses > rangeNodes {
		t.Errorf("nodes: NN %d, range %d; recorded at most %d and %d", nn.NodeAccesses, rg.NodeAccesses, nnNodes, rangeNodes)
	}
}

// TestNNCandidatesNearTheCount bounds what verifying a leaf's items as the
// walk expands the leaf costs: on TestKIndexReach's data and reads, at one
// shard and at four sharing their k-th best, an indexed NN verifies on every
// read at least the items countNear finds within the final k-th distance —
// no false dismissal — and no more than its shards verify searching alone.
// At one shard, where the two walks are one, it verifies at most 5 % more
// than the count summed over the reads. Four shards verify more, by how
// soon each learns the others' near answers: that depends on the schedule,
// so the five percent is not asserted there (on two cores: 9–10 % more
// when the walk queued items beside the nodes, 14–16 % now). Its answers
// are a forced scan's, to the bit.
func TestNNCandidatesNearTheCount(t *testing.T) {
	const length, count, reads, seed = 64, 4000, 100, 20261015
	t.Logf("seed %d", seed)
	names, values := familyWalks(count, length, seed)
	for _, shards := range []int{1, 4} {
		eng := newTestEngine(t, length, shards, Options{})
		if err := eng.InsertBulk(names, values); err != nil {
			t.Fatal(err)
		}
		s := storeOf(eng)
		r := rand.New(rand.NewSource(seed + 1))
		var verified, floor int
		for i := 0; i < reads; i++ {
			at := r.Intn(count)
			id, _ := s.IDByName(names[at])
			prep, _ := s.QueryPrep(id)
			q := NNQuery{Values: values[at], K: 10, Transform: transform.Identity(length), Prep: prep}
			got, st, err := forcedNN(eng, q, plan.Index)
			if err != nil {
				t.Fatal(err)
			}
			scan, _, err := forcedNN(eng, q, plan.ScanFreq)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(scan) {
				t.Fatalf("shards=%d read %d: the index answers %v, the scan %v", shards, i, got, scan)
			}
			rp, err := s.shards[0].planNN(q)
			if err != nil {
				t.Fatal(err)
			}
			ar := getArena()
			cand, alone := 0, 0
			for _, sh := range s.shards {
				c, _ := sh.countNear(rp, ar, got[len(got)-1].Dist)
				var ast ExecStats
				if err := sh.runNN(plan.Index, rp, newTopK(q.K), ar, &ast); err != nil {
					t.Fatal(err)
				}
				cand, alone = cand+c, alone+ast.Candidates
			}
			putArena(ar)
			if st.Candidates < cand || st.Candidates > alone {
				t.Fatalf("shards=%d read %d: %d candidates verified, %d within the final k-th distance, %d by the shards alone", shards, i, st.Candidates, cand, alone)
			}
			verified, floor = verified+st.Candidates, floor+cand
		}
		ratio := float64(verified) / float64(floor)
		t.Logf("shards=%d: %d candidates verified, %d within the final k-th distance (%.4f×)", shards, verified, floor, ratio)
		if shards == 1 && ratio > 1.05 {
			t.Errorf("the walk verified %.4f× the items within the final k-th distance, more than 1.05×", ratio)
		}
	}
}
