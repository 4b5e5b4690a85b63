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
// answers "index or scan?" per query from measured per-store statistics
// rather than a global default: a geometric selectivity estimate from the
// query rectangle against the store's (transformed) feature-space extent,
// calibrated by an EWMA of observed candidate counts.
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
	"sync"
	"time"

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
	// today; recorded so the merge's per-shard provenance and the cache's
	// dependency tags share one vocabulary).
	Shards []int
	// Est is the planner's cost estimate, to compare against the actual
	// ExecStats after execution (EXPLAIN's "estimated vs actual").
	Est Estimate
	// Approx is the approximate tier of the plan — guaranteed error
	// bound, first verification ladder rung, estimated speedup — or nil
	// for exact queries. See AttachApprox.
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
	// points fall in the search rectangle.
	Selectivity float64
	// Candidates is the estimated number of series reaching exact
	// verification under the index strategy.
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
	// joinVisitExp models the node-visit fraction of one probe as
	// (leafShare^e + selectivity^e) with e = 1/3 — the effective
	// dimensionality of the K=2 polar coefficient space (two magnitude
	// dimensions plus partially-selective angles). Few fat leaves are
	// visited almost entirely regardless of eps; result selectivity alone
	// badly underestimates node touching (node MBRs are much wider than
	// answer density).
	joinVisitExp = 1.0 / 3.0
)

// Costs is the planner's cost model: the prices of its primitive
// operations in units of one full candidate verification. The constants
// above are the hand-measured defaults; Calibrate re-measures the ratios
// on the running machine (cache sizes, SIMD width, and allocator behavior
// all move them) and SetCosts installs the result on a store's Tracker,
// so every Choose* decision prices strategies with machine-true numbers.
type Costs struct {
	// ScanUnit is the cost of one early-abandoned scan check.
	ScanUnit float64
	// NodeUnit is the cost of one index node access.
	NodeUnit float64
	// JoinScanUnit is the cost of one early-abandoned pair check inside
	// the nested scan join.
	JoinScanUnit float64
	// JoinNodeUnit is the cost of one node access during a join probe.
	JoinNodeUnit float64
	// JoinProbeUnit is the per-probe fixed overhead of the
	// index-nested-loop join.
	JoinProbeUnit float64
}

// DefaultCosts returns the hand-measured cost constants the model shipped
// with — the planner's behavior when no calibration has run.
func DefaultCosts() Costs {
	return Costs{
		ScanUnit:      scanUnit,
		NodeUnit:      nodeUnit,
		JoinScanUnit:  joinScanUnit,
		JoinNodeUnit:  joinNodeUnit,
		JoinProbeUnit: joinProbeUnit,
	}
}

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
// human-readable reason. t may be nil (cold store: calibration 1).
func Choose(in Input, t *Tracker) (Strategy, Estimate, string) {
	n := float64(in.Series)
	est := Estimate{Series: in.Series}
	if in.Series == 0 {
		return Index, est, "empty store: trivial traversal"
	}
	sel := Selectivity(in)
	cal := 1.0
	var nodeFrac float64
	haveFeedback := false
	if t != nil {
		cal, nodeFrac, haveFeedback = t.rangeModel()
	}
	est.Selectivity = sel
	est.Candidates = math.Min(n, sel*cal*n)
	if haveFeedback {
		est.NodeAccesses = nodeFrac * n
	} else {
		// Cold model: the traversal opens the root path plus roughly one
		// leaf per LeafCap candidates, with interior fan-in overhead.
		leaf := float64(in.LeafCap)
		if leaf <= 0 {
			leaf = 40
		}
		est.NodeAccesses = float64(in.Height) + 2*est.Candidates/leaf
	}
	// Both strategies verify (approximately) the true answers in full; the
	// index additionally pays node accesses for its candidate set, the
	// scan pays a cheap early-abandoned check for every stored series.
	c := t.Costs()
	est.IndexCost = c.NodeUnit*est.NodeAccesses + est.Candidates
	est.ScanCost = c.ScanUnit*n + (1-c.ScanUnit)*est.Candidates
	if est.IndexCost <= est.ScanCost {
		return Index, est, fmt.Sprintf(
			"index: est %.1f candidates + %.1f nodes (cost %.1f) <= scan cost %.1f over %d series",
			est.Candidates, est.NodeAccesses, est.IndexCost, est.ScanCost, in.Series)
	}
	return ScanFreq, est, fmt.Sprintf(
		"scan: selectivity %.3f makes index cost %.1f exceed scan cost %.1f over %d series",
		sel, est.IndexCost, est.ScanCost, in.Series)
}

// ChooseNN resolves index-vs-scan for a nearest-neighbor query. NN queries
// carry no threshold at planning time, so there is no rectangle to price;
// the decision comes from measured NN feedback — the branch-and-bound's
// observed candidate and node fractions — with the index as the cold
// default (the paper's setting; the traversal self-terminates at the k-th
// best bound). delta > 0 is the approximate tier's quality knob: when the
// relaxed traversal has its own feedback, the index is priced with the
// approximate candidate/node fractions instead of the exact ones, so AUTO
// can flip back to the index for queries that tolerate bounded error even
// where exact NN routes to the scan.
func ChooseNN(series int, delta float64, t *Tracker) (Strategy, Estimate, string) {
	est := Estimate{Series: series}
	n := float64(series)
	if t != nil {
		candFrac, nodeFrac, ok := t.nnModel()
		model := "measured NN traversal"
		if delta > 0 {
			if aCand, aNode, aok := t.nnApproxModel(); aok {
				candFrac, nodeFrac, ok = aCand, aNode, true
				model = fmt.Sprintf("measured approx(%g) traversal", delta)
			}
		}
		if ok {
			c := t.Costs()
			est.Candidates = candFrac * n
			est.NodeAccesses = nodeFrac * n
			est.IndexCost = c.NodeUnit*est.NodeAccesses + est.Candidates
			est.ScanCost = c.ScanUnit*n + (1-c.ScanUnit)*est.Candidates
			if est.IndexCost > est.ScanCost {
				return ScanFreq, est, fmt.Sprintf(
					"scan: %s verifies %.0f%% of the store (cost %.1f > scan %.1f)",
					model, 100*candFrac, est.IndexCost, est.ScanCost)
			}
			return Index, est, fmt.Sprintf(
				"index: %s cost %.1f <= scan cost %.1f over %d series",
				model, est.IndexCost, est.ScanCost, series)
		}
	}
	return Index, est, "index: branch-and-bound default (no NN feedback yet)"
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
	// Height is the index height (levels) and LeafCap its node capacity.
	Height  int
	LeafCap int
	// Selectivity is the estimated fraction of stored feature points
	// falling in an average probe's eps search rectangle, sampled by the
	// engine from stored series against the transformed store extent.
	Selectivity float64
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
// paper's four Table 1 methods from the store size, the sampled eps
// selectivity, and the tracker's measured join feedback. All candidate
// strategies answer the planned join identically (each qualifying pair
// reported once for self joins, each ordered pair once for two-sided
// joins), so — as with range queries — the planner only ever trades cost.
// Method a (the naive scan) is priced for EXPLAIN but never wins: it does
// strictly more work than the early-abandoning scan on every input.
func ChooseJoin(in JoinInput, t *Tracker) (Strategy, Estimate, string) {
	n := float64(in.Series)
	est := Estimate{Series: in.Series}
	if in.Series < 2 {
		return Index, est, "fewer than two series: no pairs to join"
	}
	pairs := n * (n - 1) / 2
	if in.TwoSided {
		pairs = n * (n - 1)
	}
	sel := in.Selectivity
	cal := 1.0
	var nodeFrac float64
	haveFeedback := false
	if t != nil {
		cal, nodeFrac, haveFeedback = t.joinModel()
	}
	est.Selectivity = sel
	est.Candidates = math.Min(pairs, sel*cal*pairs)
	if haveFeedback {
		est.NodeAccesses = nodeFrac * n * n
	} else {
		// Cold model: each probe opens the root path plus a visit
		// fraction of the ~2n/LeafCap index nodes (see joinVisitExp).
		leaf := float64(in.LeafCap)
		if leaf <= 0 {
			leaf = 40
		}
		visitFrac := math.Min(1, math.Pow(leaf/n, joinVisitExp)+math.Pow(sel, joinVisitExp))
		est.NodeAccesses = n * (float64(in.Height) + visitFrac*2*n/leaf)
	}
	// Index: per-probe setup plus node accesses for n rectangle searches
	// plus one verification per selected candidate pair. Scan (b): one
	// early-abandoned check per pair, completed to a full verification
	// for the pairs that survive. Scan (a) is the same quadratic loop
	// with every check completed.
	c := t.Costs()
	est.IndexCost = c.JoinProbeUnit*n + c.JoinNodeUnit*est.NodeAccesses + est.Candidates
	est.ScanCost = c.JoinScanUnit*pairs + (1-c.JoinScanUnit)*est.Candidates
	naiveCost := pairs
	if est.IndexCost <= est.ScanCost {
		return Index, est, fmt.Sprintf(
			"index method %s: est %.0f candidate pairs + %.0f nodes (cost %.0f) <= scan b cost %.0f (naive a: %.0f) over %d series",
			JoinMethodLetter(Index, in.Identity), est.Candidates, est.NodeAccesses, est.IndexCost, est.ScanCost, naiveCost, in.Series)
	}
	return ScanFreq, est, fmt.Sprintf(
		"scan method b: selectivity %.3f makes index cost %.0f exceed scan cost %.0f (naive a: %.0f) over %d series",
		sel, est.IndexCost, est.ScanCost, naiveCost, in.Series)
}

// ewmaAlpha weights recent executions; ~the last 2/alpha queries dominate.
const ewmaAlpha = 0.2

// Tracker accumulates per-store execution feedback for the planner: an
// EWMA calibration of the geometric selectivity estimate (observed over
// predicted candidates) and EWMA node/candidate fractions. One Tracker
// lives on each core.Store (the store as a whole, never a shard); all
// methods are safe for concurrent use.
type Tracker struct {
	mu sync.Mutex

	rangeSamples int
	calibration  float64 // EWMA of observed/predicted candidate ratio
	nodeFrac     float64 // EWMA of NodeAccesses / Series (indexed ranges)

	nnSamples  int
	nnCandFrac float64 // EWMA of Candidates / Series (indexed NN)
	nnNodeFrac float64 // EWMA of NodeAccesses / Series (indexed NN)

	joinSamples     int
	joinCalibration float64 // EWMA of observed/predicted candidate-pair ratio
	joinNodeFrac    float64 // EWMA of NodeAccesses / Series^2 (indexed joins)

	// Approximate-tier feedback (see ObserveApprox): realized bound
	// tightness, verified terms per candidate (the ladder rung signal),
	// and the relaxed NN traversal's candidate/node shrink. Kept apart
	// from the exact models so approximate executions never pollute
	// exact cost estimates.
	apxRangeSamples int
	apxRangeTight   float64
	apxRangeTerms   float64
	apxNNSamples    int
	apxNNTight      float64
	apxNNTerms      float64
	apxNNCandFrac   float64
	apxNNNodeFrac   float64

	// costs are the cost-model constants this store prices strategies
	// with: DefaultCosts until SetCosts installs a calibrated set.
	costs Costs
}

// NewTracker returns an empty tracker (calibration 1 until fed, default
// cost constants until SetCosts).
func NewTracker() *Tracker {
	return &Tracker{calibration: 1, joinCalibration: 1, costs: DefaultCosts()}
}

// SetCosts installs cost-model constants (normally Calibrated()); they
// apply to every subsequent Choose* decision made against this tracker.
func (t *Tracker) SetCosts(c Costs) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.costs = c
	t.mu.Unlock()
}

// Costs returns the cost-model constants in effect. A zero-value Tracker
// (not built by NewTracker) prices with the defaults.
func (t *Tracker) Costs() Costs {
	if t == nil {
		return DefaultCosts()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.costs == (Costs{}) {
		return DefaultCosts()
	}
	return t.costs
}

// ObserveRange feeds one indexed range execution back: the planner's
// predicted candidate count and the measured candidates and node accesses.
func (t *Tracker) ObserveRange(predicted float64, candidates, nodes, series int) {
	if t == nil || series <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := float64(series)
	if predicted >= 1 {
		ratio := float64(candidates) / predicted
		// Bound single-sample influence: a wildly mispredicted query nudges
		// the calibration, it does not take it over.
		ratio = math.Min(ratio, 16)
		t.calibration = ewma(t.calibration, ratio, t.rangeSamples)
	}
	t.nodeFrac = ewma(t.nodeFrac, float64(nodes)/n, t.rangeSamples)
	t.rangeSamples++
}

// ObserveNN feeds one indexed NN execution back.
func (t *Tracker) ObserveNN(candidates, nodes, series int) {
	if t == nil || series <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := float64(series)
	t.nnCandFrac = ewma(t.nnCandFrac, float64(candidates)/n, t.nnSamples)
	t.nnNodeFrac = ewma(t.nnNodeFrac, float64(nodes)/n, t.nnSamples)
	t.nnSamples++
}

// ObserveJoin feeds one indexed join execution back: the planner's
// predicted candidate-pair count and the measured verified candidates and
// total node accesses across all probes.
func (t *Tracker) ObserveJoin(predicted float64, candidates, nodes, series int) {
	if t == nil || series <= 1 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := float64(series)
	if predicted >= 1 {
		ratio := math.Min(float64(candidates)/predicted, 16)
		t.joinCalibration = ewma(t.joinCalibration, ratio, t.joinSamples)
	}
	t.joinNodeFrac = ewma(t.joinNodeFrac, float64(nodes)/(n*n), t.joinSamples)
	t.joinSamples++
}

func (t *Tracker) joinModel() (calibration, nodeFrac float64, ok bool) {
	if t == nil {
		return 1, 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.joinSamples == 0 {
		return 1, 0, false
	}
	return t.joinCalibration, t.joinNodeFrac, true
}

func ewma(prev, x float64, samples int) float64 {
	if samples == 0 {
		return x
	}
	return (1-ewmaAlpha)*prev + ewmaAlpha*x
}

func (t *Tracker) rangeModel() (calibration, nodeFrac float64, ok bool) {
	if t == nil {
		return 1, 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rangeSamples == 0 {
		return 1, 0, false
	}
	return t.calibration, t.nodeFrac, true
}

func (t *Tracker) nnModel() (candFrac, nodeFrac float64, ok bool) {
	if t == nil {
		return 0, 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.nnSamples == 0 {
		return 0, 0, false
	}
	return t.nnCandFrac, t.nnNodeFrac, true
}

// Snapshot is a point-in-time view of a tracker for diagnostics.
type Snapshot struct {
	RangeSamples    int
	Calibration     float64
	NodeFrac        float64
	NNSamples       int
	NNCandFrac      float64
	NNNodeFrac      float64
	JoinSamples     int
	JoinCalibration float64
	JoinNodeFrac    float64
}

// Stats returns the tracker's current state.
func (t *Tracker) Stats() Snapshot {
	if t == nil {
		return Snapshot{Calibration: 1, JoinCalibration: 1}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Snapshot{
		RangeSamples:    t.rangeSamples,
		Calibration:     t.calibration,
		NodeFrac:        t.nodeFrac,
		NNSamples:       t.nnSamples,
		NNCandFrac:      t.nnCandFrac,
		NNNodeFrac:      t.nnNodeFrac,
		JoinSamples:     t.joinSamples,
		JoinCalibration: t.joinCalibration,
		JoinNodeFrac:    t.joinNodeFrac,
	}
}

// Record is one executed plan, kept in a store's history ring so
// estimated-vs-actual drift and mispredictions stay visible after the
// query returns (EXPLAIN shows one query; the ring shows the recent
// population).
type Record struct {
	// Seq increases by one per recorded execution on a store.
	Seq int64
	// Kind, Strategy, Method, Forced, and Reason echo the executed plan.
	Kind     string
	Strategy string
	Method   string
	Forced   bool
	Reason   string
	// Series and Shards are the store size and fan-out width at planning.
	Series int
	Shards int
	// EstCandidates and EstCost are the planner's predictions for the
	// chosen strategy; ActualCandidates and ActualNodeAccesses are what
	// the execution measured.
	EstCandidates      float64
	EstCost            float64
	ActualCandidates   int
	ActualNodeAccesses int
	Results            int
	ElapsedUS          float64
}

// DefaultHistorySize is the executed-plan ring capacity.
const DefaultHistorySize = 64

// History is a fixed-capacity ring of executed plans. One History lives
// on each store next to its Tracker; all methods are safe for concurrent
// use.
type History struct {
	mu   sync.Mutex
	seq  int64
	buf  []Record
	next int
	full bool
	// drift accumulates per-kind cost-error percentile checkpoints (see
	// DriftPoint); in-memory only, rebuilt by live traffic after a
	// restart.
	drift map[string]*driftAccum
}

// NewHistory returns an empty ring holding up to n records (n <= 0
// selects DefaultHistorySize).
func NewHistory(n int) *History {
	if n <= 0 {
		n = DefaultHistorySize
	}
	return &History{buf: make([]Record, n)}
}

// Observe appends one executed plan with its measured cost.
func (h *History) Observe(pl *Plan, candidates, nodes, results int, elapsed time.Duration) {
	if h == nil || pl == nil {
		return
	}
	cost := pl.Est.ScanCost
	if pl.Strategy == Index {
		cost = pl.Est.IndexCost
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seq++
	h.buf[h.next] = Record{
		Seq:                h.seq,
		Kind:               pl.Kind,
		Strategy:           pl.Strategy.String(),
		Method:             pl.Method,
		Forced:             pl.Forced,
		Reason:             pl.Reason,
		Series:             pl.Est.Series,
		Shards:             len(pl.Shards),
		EstCandidates:      pl.Est.Candidates,
		EstCost:            cost,
		ActualCandidates:   candidates,
		ActualNodeAccesses: nodes,
		Results:            results,
		ElapsedUS:          float64(elapsed) / float64(time.Microsecond),
	}
	h.next = (h.next + 1) % len(h.buf)
	if h.next == 0 {
		h.full = true
	}
	h.observeDrift(pl.Kind, math.Abs(float64(candidates)-pl.Est.Candidates)/math.Max(pl.Est.Candidates, 1))
}

// Recent returns the retained records, oldest first.
func (h *History) Recent() []Record {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.full {
		out := make([]Record, h.next)
		copy(out, h.buf[:h.next])
		return out
	}
	out := make([]Record, 0, len(h.buf))
	out = append(out, h.buf[h.next:]...)
	out = append(out, h.buf[:h.next]...)
	return out
}

// Export returns the ring's persistent state: the sequence counter and
// the retained records, oldest first. The pair round-trips through
// Import, which is how snapshots carry planner drift across restarts.
func (h *History) Export() (seq int64, recs []Record) {
	if h == nil {
		return 0, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.full {
		recs = make([]Record, h.next)
		copy(recs, h.buf[:h.next])
		return h.seq, recs
	}
	recs = make([]Record, 0, len(h.buf))
	recs = append(recs, h.buf[h.next:]...)
	recs = append(recs, h.buf[:h.next]...)
	return h.seq, recs
}

// Import replaces the ring's contents with a previously Exported state.
// Records beyond the ring's capacity keep only the newest, matching what
// the ring would have retained had it observed them live.
func (h *History) Import(seq int64, recs []Record) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if n := len(h.buf); len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	for i := range h.buf {
		h.buf[i] = Record{}
	}
	copy(h.buf, recs)
	h.next = len(recs) % len(h.buf)
	h.full = len(recs) == len(h.buf)
	h.seq = seq
}

// AllShards returns the canonical shard-target list [0, n).
func AllShards(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
