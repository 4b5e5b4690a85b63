package core

import (
	"io"

	"repro/internal/feature"
	"repro/internal/plan"
	"repro/internal/transform"
)

// Engine is the query-processor surface of a Store, as the public tsq layer
// and the benchmark harness call it. It has one implementation; it is an
// interface only so that the dynamic type can say how many partitions sit
// behind it — a *DB at one shard, a *Store otherwise (Store.Engine decides)
// — which benchmark/'s replay asserts on before reaching for the k-index.
//
// There is one concurrency contract, at every shard count: every method is
// safe for concurrent use. The store synchronizes internally with one
// RWMutex per shard — writes take the owning shard's lock exclusively,
// reads each shard's in shared mode for that shard's part of the work.
type Engine interface {
	// Store shape.
	Len() int
	Length() int
	Schema() feature.Schema
	// Shards reports the partition count: the shard vocabulary of plans and
	// of per-shard provenance.
	Shards() int

	// Catalog access. IDs are unique across the whole store (global across
	// shards) and assigned in insertion order. Names returns a consistent
	// snapshot of the live names in insertion order.
	Names() []string
	Name(id int64) string
	IDByName(name string) (int64, bool)
	Series(id int64) ([]float64, error)
	// QueryPrep snapshots a stored series' planning artifacts (indexed
	// feature point + stored spectrum) so by-name queries plan without
	// recomputing them from raw values.
	QueryPrep(id int64) (*QueryPrep, bool)

	// Writes. Insert, Update and Append each report the one thing the layers
	// above need of a single-series write: the Committed (id and indexed
	// feature point), taken under the shard's write lock. Update and Append
	// are the same in-place overwrite — same ID, same slot, no storage
	// growth — the latter after sliding the stored window forward; all three
	// derive what they store the same way, so a series is bit-identical
	// however it got its window.
	Insert(name string, values []float64) (Committed, error)
	InsertBulk(names []string, values [][]float64) error
	Update(name string, values []float64) (Committed, error)
	Append(name string, points []float64) (Committed, error)
	Delete(name string) bool
	Compact() (pagesReclaimed int, err error)
	// Close releases backing storage: the page memory of a memory store,
	// the scratch page files of a disk-backed one. Every read after it
	// returns ErrClosed.
	Close() error

	// Storage observability: buffer-pool counters aggregated across the
	// store's relations (and shards).
	PoolStats() PoolStats

	// Standing-query support: exact single-series verification and the
	// Lemma 1 rectangle prefilter, used by monitors. (A cached answer keeps
	// the Prefilter of the plan that produced it.)
	CheckWithin(name string, q RangeQuery) (dist float64, within bool, err error)
	PlanPrefilter(q RangeQuery) (*Prefilter, error)

	// Persistence.
	WriteTo(w io.Writer) (int64, error)

	// Plan-first execution: the one path a range or NN read takes. PlanRange/
	// PlanNN build a first-class plan.Plan — resolving the index-vs-scan
	// decision per query from the store's size and extent when asked for
	// plan.Auto, recording the caller's choice as a forced plan otherwise —
	// and ExecRangeInto/ExecNNInto run it, reusing the plan's precomputed
	// transforms and spectra and (across shards) recording per-shard
	// provenance in ExecStats.Shards. Timing, ordering, page accounting
	// and telemetry happen there and nowhere else, so a forced strategy is
	// observable exactly as a chosen one is.
	// Answers append to dst (pass a [:0] slice to reuse its backing array);
	// on a one-shard store a warm call whose dst has capacity allocates
	// nothing. Plans are engine-specific: execute a plan only on the engine
	// that built it.
	PlanRange(q RangeQuery, want plan.Strategy) (*plan.Plan, error)
	PlanNN(q NNQuery, want plan.Strategy) (*plan.Plan, error)
	ExecRangeInto(q RangeQuery, pl *plan.Plan, dst []Result) ([]Result, ExecStats, error)
	ExecNNInto(q NNQuery, pl *plan.Plan, dst []Result) ([]Result, ExecStats, error)
	// PlanJoin/ExecJoin are the planned all-pairs path: the planner prices
	// the paper's four Table 1 join methods (store cardinality and the
	// candidates and nodes of sampled count-only index probes) and the
	// execution fans the chosen method out with
	// per-shard provenance. Planned self joins report each unordered pair
	// once (A < B); two-sided joins report ordered pairs. The
	// method-pinned SelfJoin below keeps the paper's exact Table 1
	// accounting instead.
	PlanJoin(q JoinQuery, want plan.Strategy) (*plan.Plan, error)
	ExecJoin(q JoinQuery, pl *plan.Plan) ([]JoinPair, ExecStats, error)

	// Result orderings are deterministic: (distance, ID) for range/NN/
	// subsequence answers, (A, B) for join pairs. SelfJoin is the one
	// method-pinned query left: the paper's Table 1 accounting is part of
	// its answer (index methods report each pair twice, method c ignores the
	// transformation), which no plan expresses.
	SelfJoin(eps float64, t transform.T, method JoinMethod) ([]JoinPair, ExecStats, error)
	SubsequenceScan(q []float64, eps float64) ([]SubseqResult, ExecStats, error)
}

var (
	_ Engine = (*Store)(nil)
	_ Engine = (*DB)(nil)
)
