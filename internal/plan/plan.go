// Package plan is the query planner of the reproduction: one first-class
// Plan value shared by every layer that answers similarity queries — the
// core engine (at every shard count), the query language, the HTTP
// server, the result cache, and the standing-query monitors.
//
// The paper's query answering is one pipeline: build the Section 3.1
// search rectangle from the transformed query's DFT features (Lemma 1/2),
// prefilter candidates — through the k-index or a sequential scan — and
// verify exactly against full records. The strategy choice between the
// index and the scan is a genuine optimization decision: the index wins
// when the rectangle selects few candidates, the frequency-domain scan
// wins when most of the store would be verified anyway (the index then
// pays its node accesses on top of the same verification work). Following
// the Lernaean Hydra evaluations (Echihabi et al. 2020), the planner
// answers "index or scan?" per query from the store's own statistics
// rather than a global default: a range read from a geometric selectivity
// estimate of the query rectangle against the store's (transformed)
// feature-space extent, a join from count-only index probes of a few
// stored series. A plan depends only on the store and the query, never on
// the reads that ran before it.
//
// Every strategy answers queries byte-identically (both are exact; answers
// carry deterministic orderings), so the planner only ever trades cost —
// never answers. The one exception is moment-bounded range queries, whose
// scan baselines deliberately ignore the mean/std bounds; the planner pins
// those to the index (see Choose).
package plan

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Strategy is the execution strategy of a planned query.
type Strategy int

const (
	// Auto defers the choice to the planner (a request value only; a built
	// Plan always carries a concrete strategy).
	Auto Strategy = iota
	// Index runs the paper's Algorithm 2 over the k-index.
	Index
	// ScanFreq runs the frequency-domain sequential scan with early
	// abandoning.
	ScanFreq
	// ScanTime runs the naive time-domain scan.
	ScanTime
)

func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case Index:
		return "index"
	case ScanFreq:
		return "scan"
	case ScanTime:
		return "scantime"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Plan is one query's execution plan: what will run, where, and what the
// planner expects it to cost. Plans are built by an engine (a core.Store)
// and are engine-specific — Internal carries the engine's
// precomputed transforms and spectra, so executing a plan never redoes the
// planning FFTs.
type Plan struct {
	// Kind is the query kind: "range", "nn", "selfjoin", "join", or
	// "subsequence".
	Kind string
	// Transform is the canonical transformation pipeline (display form).
	Transform string
	// Eps is the range/join threshold (0 for NN).
	Eps float64
	// K is the neighbor count (NN only).
	K int
	// Strategy is the resolved execution strategy — never Auto.
	Strategy Strategy
	// Method is the paper's Table 1 method letter of a join plan ("a",
	// "b", "d", or "c/d" when the identity action makes methods c and d
	// coincide); empty for non-join plans.
	Method string
	// Forced reports that the caller pinned the strategy (USING INDEX /
	// UseScan / a moment-bounded query) rather than the planner choosing.
	Forced bool
	// Trace asks the execution to record its span tree even when process
	// metrics are off (TRACE statements). The zero-allocation hot path
	// skips span construction when neither wants it.
	Trace bool
	// Reason is the planner's human-readable justification.
	Reason string
	// Filter names the Lemma 1 filter radius the index strategy runs at:
	// "eps/√2 (conjugate symmetry)" when every indexed coefficient of a
	// real series counts twice under the plan's transformation, else "eps"
	// with the reason it does not ("asymmetric transform", "2K ≥ n"). For
	// NN plans eps is the k-th best distance. Empty when the plan has no
	// index path.
	Filter string
	// Rect is the Lemma 1 feature-space search rectangle of range-shaped
	// queries (zero for NN, joins, and subsequence scans, whose thresholds
	// are unknown or absent at planning time).
	Rect geom.Rect
	// Shards lists the shard targets of the fan-out (always every shard
	// today; EXPLAIN prints it beside the merge's per-shard provenance).
	Shards []int
	// Est is the planner's cost estimate, to compare against the actual
	// ExecStats after execution (EXPLAIN's "estimated vs actual").
	Est Estimate
	// Approx is the approximate tier of the plan — its guaranteed error
	// bound — or nil for exact queries.
	Approx *ApproxInfo

	// Internal is the engine's opaque execution payload (precomputed query
	// spectrum, transformation coefficients, feature point). It is reused
	// by the engine that built the plan and must not be interpreted — or
	// handed to a different engine — by callers.
	Internal any
}

// Estimate is the planner's cost model output for one query.
type Estimate struct {
	// Series is the store size the estimate was computed against.
	Series int
	// Selectivity is the estimated fraction of stored series whose feature
	// points fall in the search rectangle; for a join, the fraction of all
	// pairs that are candidates.
	Selectivity float64
	// Candidates is the estimated number of series (for a join, pairs)
	// reaching exact verification under the index strategy.
	Candidates float64
	// NodeAccesses is the estimated index nodes visited.
	NodeAccesses float64
	// IndexCost and ScanCost are the modeled costs (in verification units)
	// the strategies were compared under.
	IndexCost float64
	ScanCost  float64
}

// Cost model constants, in units of "one full candidate verification".
// The frequency-domain scan touches every stored series but abandons most
// distance computations within a few coefficients, so a scanned series
// costs a fraction of a full verification; an index node access costs
// about one verification (a capacity-M rectangle pass over the node).
// They are fixed: every process, machine and build prices a given store
// and query alike.
const (
	// scanUnit is the cost of one early-abandoned scan check.
	scanUnit = 0.25
	// nodeUnit is the cost of one index node access.
	nodeUnit = 1.0
	// joinScanUnit is the cost of one early-abandoned pair check inside
	// the nested scan join: the inner spectrum is already paged in and a
	// non-matching pair abandons within the first couple of coefficients
	// — a few multiply-adds, under a tenth of a full verification. (The
	// range scan's scanUnit is higher because each of its checks opens a
	// stored record on its own.)
	joinScanUnit = 0.09
	// joinNodeUnit is the cost of one node access during a join probe's
	// rectangle search: a capacity-M pass of per-rectangle transform
	// arithmetic, measurably about two verifications. Joins price nodes
	// higher than single queries because every probe repeats the
	// traversal's setup against already-warm caches, where a lone range
	// query's node cost amortizes its misses.
	joinNodeUnit = 2.0
	// joinProbeUnit is the per-probe fixed overhead of the
	// index-nested-loop join: one spectrum fetch and the transformed
	// query setup per stored series.
	joinProbeUnit = 3.0
)

// Input is what the planner knows about one range-shaped query before
// executing it.
type Input struct {
	// Series is the live store size.
	Series int
	// Height is the index height (levels) and LeafCap its node capacity.
	Height  int
	LeafCap int
	// Rect is the query's search rectangle; Bounds is the store's feature-
	// space extent mapped through the query transformation — the same
	// space the index traversal compares in. Angular flags wrap-around
	// dimensions. (Unbounded moment dimensions need no special handling:
	// their rectangle intervals cover the whole extent, so their
	// selectivity factor is 1.)
	Rect    geom.Rect
	Bounds  geom.Rect
	Angular []bool
}

// Selectivity estimates the fraction of stored feature points falling in
// the query rectangle: per dimension, the query interval's share of the
// store's extent (angular dimensions use their share of the full circle),
// multiplied under an independence assumption. Degenerate store dimensions
// count 1 when intersected, 0 when missed — a miss in any dimension proves
// an empty answer by Lemma 1.
func Selectivity(in Input) float64 {
	if in.Rect.Dims() == 0 || in.Bounds.Dims() != in.Rect.Dims() {
		return 1
	}
	sel := 1.0
	for d := 0; d < in.Rect.Dims(); d++ {
		if d < len(in.Angular) && in.Angular[d] {
			width := in.Rect.Hi[d] - in.Rect.Lo[d]
			if width < 2*math.Pi {
				sel *= width / (2 * math.Pi)
			}
			continue
		}
		lo := math.Max(in.Rect.Lo[d], in.Bounds.Lo[d])
		hi := math.Min(in.Rect.Hi[d], in.Bounds.Hi[d])
		if lo > hi {
			return 0
		}
		spread := in.Bounds.Hi[d] - in.Bounds.Lo[d]
		if spread <= 0 {
			continue // all points share this coordinate and the rect covers it
		}
		frac := (hi - lo) / spread
		if frac < 1 {
			sel *= frac
		}
	}
	return sel
}

// Choose resolves the index-vs-scan decision for a range-shaped query and
// returns the estimate both strategies were priced under plus the
// human-readable reason.
func Choose(in Input) (Strategy, Estimate, string) {
	n := float64(in.Series)
	est := Estimate{Series: in.Series}
	if in.Series == 0 {
		return Index, est, "empty store: trivial traversal"
	}
	sel := Selectivity(in)
	est.Selectivity = sel
	est.Candidates = sel * n
	// The traversal opens the root path plus roughly one leaf per LeafCap
	// candidates, with interior fan-in overhead.
	leaf := float64(in.LeafCap)
	if leaf <= 0 {
		leaf = 40
	}
	est.NodeAccesses = float64(in.Height) + 2*est.Candidates/leaf
	// Both strategies verify (approximately) the true answers in full; the
	// index additionally pays node accesses for its candidate set, the
	// scan pays a cheap early-abandoned check for every stored series.
	est.IndexCost = nodeUnit*est.NodeAccesses + est.Candidates
	est.ScanCost = scanUnit*n + (1-scanUnit)*est.Candidates
	if est.IndexCost <= est.ScanCost {
		return Index, est, fmt.Sprintf(
			"index: est %.1f candidates + %.1f nodes (cost %.1f) <= scan cost %.1f over %d series",
			est.Candidates, est.NodeAccesses, est.IndexCost, est.ScanCost, in.Series)
	}
	return ScanFreq, est, fmt.Sprintf(
		"scan: selectivity %.3f makes index cost %.1f exceed scan cost %.1f over %d series",
		sel, est.IndexCost, est.ScanCost, in.Series)
}

// JoinInput is what the planner knows about an all-pairs join before
// executing it. The paper's Table 1 compares four self-join methods whose
// winner flips with store size and eps: the nested scans (a, b) pay a
// quadratic number of pair comparisons regardless of eps, while the
// index-nested-loop methods (c, d) pay one rectangle search per stored
// series plus the candidates those rectangles select — cheap when eps is
// selective, worse than the scan when every rectangle covers the store.
type JoinInput struct {
	// Series is the live store size.
	Series int
	// Candidates and NodeAccesses are what the index-nested-loop join
	// would verify and visit, measured by the engine: count-only index
	// probes of a few stored series, scaled to one probe per series.
	Candidates   float64
	NodeAccesses float64
	// TwoSided marks the generalized Section 4 join (ordered pairs, both
	// orientations verified per unordered pair); self joins verify each
	// unordered pair once.
	TwoSided bool
	// Identity reports that both join sides carry the identity index
	// action, in which case Table 1's methods c and d coincide.
	Identity bool
}

// JoinMethodLetter maps a resolved join strategy onto the paper's Table 1
// method letter: the naive nested scan is method a, the early-abandoning
// scan method b, and the index-nested-loop method d (c/d under the
// identity action, where the two are the same algorithm).
func JoinMethodLetter(s Strategy, identity bool) string {
	switch s {
	case ScanTime:
		return "a"
	case ScanFreq:
		return "b"
	case Index:
		if identity {
			return "c/d"
		}
		return "d"
	default:
		return ""
	}
}

// ChooseJoin resolves the join method for an all-pairs query, pricing the
// paper's four Table 1 methods from the store size and the engine's
// measured candidate and node counts. All candidate strategies answer the
// planned join identically (each qualifying pair reported once for self
// joins, each ordered pair once for two-sided joins), so — as with range
// queries — the planner only ever trades cost. Method a (the naive scan)
// is priced for EXPLAIN but never wins: it does strictly more work than
// the early-abandoning scan on every input.
func ChooseJoin(in JoinInput) (Strategy, Estimate, string) {
	n := float64(in.Series)
	est := Estimate{Series: in.Series}
	if in.Series < 2 {
		return Index, est, "fewer than two series: no pairs to join"
	}
	pairs := n * (n - 1) / 2
	if in.TwoSided {
		pairs = n * (n - 1)
	}
	est.Candidates = math.Min(pairs, in.Candidates)
	est.Selectivity = est.Candidates / pairs
	est.NodeAccesses = in.NodeAccesses
	// Index: per-probe setup plus node accesses for n rectangle searches
	// plus one verification per selected candidate pair. Scan (b): one
	// early-abandoned check per pair, completed to a full verification
	// for the pairs that survive. Scan (a) is the same quadratic loop
	// with every check completed.
	est.IndexCost = joinProbeUnit*n + joinNodeUnit*est.NodeAccesses + est.Candidates
	est.ScanCost = joinScanUnit*pairs + (1-joinScanUnit)*est.Candidates
	naiveCost := pairs
	if est.IndexCost <= est.ScanCost {
		return Index, est, fmt.Sprintf(
			"index method %s: est %.0f candidate pairs + %.0f nodes (cost %.0f) <= scan b cost %.0f (naive a: %.0f) over %d series",
			JoinMethodLetter(Index, in.Identity), est.Candidates, est.NodeAccesses, est.IndexCost, est.ScanCost, naiveCost, in.Series)
	}
	return ScanFreq, est, fmt.Sprintf(
		"scan method b: selectivity %.3f makes index cost %.0f exceed scan cost %.0f (naive a: %.0f) over %d series",
		est.Selectivity, est.IndexCost, est.ScanCost, naiveCost, in.Series)
}

// AllShards returns the canonical shard-target list [0, n).
func AllShards(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
