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
// by the filter, not by the tree, so their totals must stay exactly as
// recorded. The nodes are the tree's doing and may only fall: they were
// recorded when STR began tiling only the coefficient dimensions and
// filling its nodes (tiling all six, half-full leaves, the same reads
// visited 13,314 and 7,272 nodes).
func TestKIndexReach(t *testing.T) {
	const (
		length, count, reads, seed    = 64, 4000, 100, 20261015
		nnCandidates, rangeCandidates = 50906, 5111
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
