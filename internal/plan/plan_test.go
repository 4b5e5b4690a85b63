package plan

import (
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
)

func rect(pairs ...float64) geom.Rect {
	if len(pairs)%2 != 0 {
		panic("rect wants lo,hi pairs")
	}
	n := len(pairs) / 2
	r := geom.Rect{Lo: make(geom.Point, n), Hi: make(geom.Point, n)}
	for i := 0; i < n; i++ {
		r.Lo[i], r.Hi[i] = pairs[2*i], pairs[2*i+1]
	}
	return r
}

func TestSelectivityGeometry(t *testing.T) {
	in := Input{
		Series: 100,
		Rect:   rect(0, 1, 0, 2),
		Bounds: rect(0, 10, 0, 10),
	}
	if got, want := Selectivity(in), 0.1*0.2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("selectivity = %g, want %g", got, want)
	}

	// Disjoint in one dimension proves an empty answer.
	in.Rect = rect(20, 21, 0, 2)
	if got := Selectivity(in); got != 0 {
		t.Fatalf("disjoint selectivity = %g, want 0", got)
	}

	// A rectangle covering the whole extent selects everything.
	in.Rect = rect(-100, 100, -100, 100)
	if got := Selectivity(in); got != 1 {
		t.Fatalf("covering selectivity = %g, want 1", got)
	}
}

func TestSelectivityAngularAndDegenerate(t *testing.T) {
	// dim 1 is angular: share of the full circle, bounds ignored.
	in := Input{
		Series:  50,
		Rect:    rect(0, 10, -math.Pi/2, math.Pi/2),
		Bounds:  rect(0, 10, -3, 3),
		Angular: []bool{false, true},
	}
	if got, want := Selectivity(in), 0.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("angular selectivity = %g, want %g", got, want)
	}

	// Degenerate store dimension: covered -> factor 1, missed -> 0.
	in = Input{Series: 5, Rect: rect(0, 1), Bounds: rect(0.5, 0.5)}
	if got := Selectivity(in); got != 1 {
		t.Fatalf("degenerate covered = %g, want 1", got)
	}
	in.Rect = rect(2, 3)
	if got := Selectivity(in); got != 0 {
		t.Fatalf("degenerate missed = %g, want 0", got)
	}
}

func TestChooseLowSelectivityPicksIndex(t *testing.T) {
	in := Input{
		Series:  10000,
		Height:  3,
		LeafCap: 40,
		Rect:    rect(0, 0.1, 0, 0.1),
		Bounds:  rect(0, 100, 0, 100),
	}
	s, est, reason := Choose(in)
	if s != Index {
		t.Fatalf("strategy = %v (%s), want Index", s, reason)
	}
	if est.IndexCost > est.ScanCost {
		t.Fatalf("estimate inconsistent with choice: %+v", est)
	}
}

func TestChooseHighSelectivityPicksScan(t *testing.T) {
	in := Input{
		Series:  10000,
		Height:  3,
		LeafCap: 40,
		Rect:    rect(-1000, 1000, -1000, 1000),
		Bounds:  rect(0, 100, 0, 100),
	}
	s, est, reason := Choose(in)
	if s != ScanFreq {
		t.Fatalf("strategy = %v (%s), want ScanFreq", s, reason)
	}
	if est.Selectivity != 1 {
		t.Fatalf("selectivity = %g, want 1", est.Selectivity)
	}
	if !strings.Contains(reason, "scan") {
		t.Fatalf("reason %q does not explain the scan choice", reason)
	}
}

func TestAllShards(t *testing.T) {
	got := AllShards(3)
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("AllShards(3) = %v", got)
	}
}

func TestChooseJoinByRegime(t *testing.T) {
	// Selective eps on a large store: n rectangle probes that visit a
	// fraction of the tree beat the quadratic scan.
	in := JoinInput{Series: 5000, Candidates: 1250, NodeAccesses: 325_000}
	s, est, reason := ChooseJoin(in)
	if s != Index {
		t.Fatalf("selective large join chose %v (%s)", s, reason)
	}
	if est.IndexCost >= est.ScanCost {
		t.Fatalf("est = %+v, index should be cheaper", est)
	}
	if !strings.Contains(reason, "method d") {
		t.Fatalf("reason %q does not name the Table 1 method", reason)
	}
	// Small store: the per-probe overhead dominates; the scan's cheap
	// quadratic loop wins even with almost no candidates.
	small := JoinInput{Series: 200, Candidates: 2, NodeAccesses: 1000}
	if s, _, reason = ChooseJoin(small); s != ScanFreq {
		t.Fatalf("selective small join chose %v (%s)", s, reason)
	}
	// Exhaustive eps: every probe selects the whole store and visits every
	// node; the early-abandoning scan wins at any size. The estimate never
	// counts more candidates than there are pairs.
	wide := JoinInput{Series: 5000, Candidates: 2e7, NodeAccesses: 1_250_000}
	s, est, reason = ChooseJoin(wide)
	if s != ScanFreq {
		t.Fatalf("exhaustive join chose %v (%s)", s, reason)
	}
	if pairs := 5000.0 * 4999 / 2; est.Candidates != pairs || est.Selectivity != 1 {
		t.Fatalf("exhaustive join estimated %g candidates (selectivity %g), want all %g pairs", est.Candidates, est.Selectivity, pairs)
	}
	// Identity action: the method letter reports c/d coincide.
	in.Identity = true
	if _, _, reason = ChooseJoin(in); !strings.Contains(reason, "c/d") {
		t.Fatalf("identity join reason %q does not mention c/d", reason)
	}
	// Tiny stores are trivial.
	if s, _, _ = ChooseJoin(JoinInput{Series: 1}); s != Index {
		t.Fatal("singleton store should be trivial")
	}
}

func TestJoinMethodLetter(t *testing.T) {
	cases := map[Strategy]string{ScanTime: "a", ScanFreq: "b", Index: "d"}
	for s, want := range cases {
		if got := JoinMethodLetter(s, false); got != want {
			t.Fatalf("JoinMethodLetter(%v) = %q, want %q", s, got, want)
		}
	}
	if got := JoinMethodLetter(Index, true); got != "c/d" {
		t.Fatalf("identity index letter = %q, want c/d", got)
	}
}

// breakEvenCases straddle the break-even between index and scan where the
// cost constants put it: a range query on 1,000 series selecting 80 % of
// them goes to the index (cost 3 + 40 + 800 = 843 against
// 0.25·1000 + 0.75·800 = 850) and one selecting 85 % to the scan (895.5
// against 887.5); a self join of 5,000 series whose probes measure 100,000
// candidate pairs goes to the index at 540,000 node accesses
// (3·5000 + 2·540,000 + 100,000 = 1,195,000 against
// 0.09·12,497,500 + 0.91·100,000 = 1,215,775) and to the scan at 560,000
// (1,235,000).
var breakEvenCases = []struct {
	join            bool
	at              float64 // percent selected for a range, node accesses for a join
	want            Strategy
	index, scanCost float64
}{
	{false, 80, Index, 843, 850},
	{false, 85, ScanFreq, 895.5, 887.5},
	{true, 540_000, Index, 1_195_000, 1_215_775},
	{true, 560_000, ScanFreq, 1_235_000, 1_215_775},
}

// chooseBreakEven plans one of breakEvenCases.
func chooseBreakEven(i int) (Strategy, Estimate, string) {
	c := breakEvenCases[i]
	if c.join {
		return ChooseJoin(JoinInput{Series: 5000, Candidates: 100_000, NodeAccesses: c.at})
	}
	return Choose(Input{Series: 1000, Height: 3, LeafCap: 40, Rect: rect(0, c.at), Bounds: rect(0, 100)})
}

// TestSetCostsDrivesChoice: the cost constants set where the index-vs-scan
// break-even sits, and the planner plans on either side of it as they
// price the two strategies.
func TestSetCostsDrivesChoice(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*want }
	for i, c := range breakEvenCases {
		s, est, reason := chooseBreakEven(i)
		if s != c.want || !near(est.IndexCost, c.index) || !near(est.ScanCost, c.scanCost) {
			t.Errorf("case %d (join %v at %g): %v at index %g / scan %g (%s), want %v at %g / %g",
				i, c.join, c.at, s, est.IndexCost, est.ScanCost, reason, c.want, c.index, c.scanCost)
		}
	}
}
