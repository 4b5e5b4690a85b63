// Package tsq is a similarity-query engine for time-series data,
// implementing Rafiei & Mendelzon, "Similarity-Based Queries for Time
// Series Data" (SIGMOD 1997) as a reusable Go library.
//
// A tsq.DB stores fixed-length time series. Every series is normalized
// (zero mean, unit standard deviation); its mean, standard deviation, and
// the first K DFT coefficients of the normal form become a point in a
// low-dimensional feature space indexed by an R*-tree (the paper's
// "k-index"). Similarity queries — range, k-nearest-neighbor, and
// all-pairs joins — run against the index under *safe linear
// transformations* such as moving averages, series reversal, amplitude
// scaling, and time warping: the index is traversed as if the
// transformation had been applied to every stored series, on the fly,
// with no false dismissals (the paper's Algorithm 2 and Lemma 1), and
// candidates are verified against full records.
//
// # Quick start
//
//	db, _ := tsq.Open(tsq.Options{Length: 128})
//	db.Insert("BBA", bbaPrices)
//	db.Insert("ZTR", ztrPrices)
//
//	// Stocks whose 20-day-smoothed shapes match BBA's:
//	matches, _, _ := db.RangeByName("BBA", 2.75, tsq.MovingAverage(20))
//
//	// Stocks moving opposite to each other (hedging):
//	pairs, _, _ := db.JoinTwoSided(1.0,
//	    tsq.Reverse().Then(tsq.MovingAverage(20)), tsq.MovingAverage(20))
//
//	// Or the query language:
//	out, _ := db.Query("RANGE SERIES 'BBA' EPS 2.75 TRANSFORM mavg(20)")
//
// # Serving and sharding
//
// A DB is safe for concurrent use as-is, at every shard count: the store
// locks itself, one read-write lock per shard. For a long-lived concurrent
// service, wrap it in a Server, which adds an LRU cache that absorbs
// repeated queries, traffic counters and standing queries on top:
//
//	srv := tsq.NewServer(db, tsq.ServerOptions{})
//	matches, stats, _ := srv.RangeByName("BBA", 2.75, tsq.MovingAverage(20))
//
// Options.Shards > 1 partitions the store into hash-partitioned shards
// (by series name), each with its own index and lock: queries fan out to
// every shard in parallel and merge — answers are identical at every shard
// count — while a writer blocks only its own shard.
//
// # Streaming (tsqlive)
//
// Live series ingest goes through Append rather than whole-series
// updates: appending points slides a series' fixed-length window forward
// and rewrites its feature point, storage records and index entry in place
// with the derivation an insert runs, so an appended series equals the
// same window inserted whole, bit for bit. A
// Server additionally hosts standing queries — MonitorRange and MonitorNN
// register a query whose answer set is kept current as writes land, with
// enter/leave events delivered to Watch subscribers (and over HTTP as a
// Server-Sent Events stream at GET /watch). See stream.go and the
// README's "Streaming and continuous queries" section.
//
// Command tsqd (cmd/tsqd) serves a Server over an HTTP/JSON API — see
// repro/internal/server and the README's "Running the server" section —
// and tsqcli's -remote flag sends query-language statements to it.
package tsq

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/rtree"
)

// Space selects how complex DFT coefficients decompose into index
// dimensions.
type Space int

const (
	// Polar stores (magnitude, phase angle) pairs — the paper's S_pol,
	// safe for every zero-translation transformation including moving
	// averages and time warping (Theorem 3). The default.
	Polar Space = iota
	// Rect stores (real, imaginary) pairs — the paper's S_rect, safe for
	// real stretch vectors such as scaling and reversal plus arbitrary
	// translations (Theorem 2).
	Rect
)

// ParseSpace parses a feature-space name ("polar" or "rect", any case)
// for command-line and wire use.
func ParseSpace(s string) (Space, error) {
	switch strings.ToLower(s) {
	case "polar":
		return Polar, nil
	case "rect":
		return Rect, nil
	default:
		return 0, fmt.Errorf("tsq: unknown space %q (want polar or rect)", s)
	}
}

// Options configures a DB.
type Options struct {
	// Length is the (fixed) length of every stored series. Required.
	Length int
	// K is the number of DFT coefficients kept in the index (X_1..X_K of
	// the normal form; X_0 is identically zero and dropped). Default 2 —
	// the paper's experimental setting.
	K int
	// Space selects the coefficient decomposition. Default Polar.
	Space Space
	// NoMoments drops the two leading mean/std index dimensions of the
	// paper's layout (they enable shift/scale-bounded queries).
	NoMoments bool
	// PageSize of the simulated storage pages (default 4096).
	PageSize int
	// NodeCapacity is the R*-tree fan-out M (default 40).
	NodeCapacity int
	// Backing, when non-empty, stores series and spectrum pages in files
	// under this directory instead of in memory, so the store can exceed
	// RAM. All page reads go through a fixed-size clock buffer pool of
	// CachePages frames per relation; only the pool and the index are
	// resident. Each shard gets its own subdirectory. The
	// files are scratch storage owned by the DB — recreated on Open,
	// removed as generations are compacted away — not a persistence
	// format; use WriteTo/ReadFrom snapshots for durability.
	Backing string
	// CachePages sizes the per-relation buffer pool of a disk-backed
	// store (default 1024 pages, i.e. 4 MiB per relation at the default
	// page size). Ignored when Backing is empty.
	CachePages int
	// Shards partitions the store into this many hash-partitioned shards
	// (by series name), each with its own index, storage, and lock.
	// Queries fan out to every shard in parallel and merge; answers are
	// identical at every shard count, and so is the concurrency contract
	// (writes lock only the owning shard). 0 selects 1: the same store with
	// a single partition, whose share of every fan-out runs inline on the
	// caller's goroutine. At most 65,535, the most a snapshot records.
	Shards int
}

// DB is an indexed time-series store, safe for concurrent use at every
// shard count: it synchronizes internally with one lock per shard.
// Wrapping it in a Server adds result caching, traffic counters and
// standing queries without re-serializing access.
type DB struct {
	eng core.Engine
}

// Open creates an empty DB.
func Open(opts Options) (*DB, error) {
	if opts.Length <= 0 {
		return nil, fmt.Errorf("tsq: Options.Length is required")
	}
	k := opts.K
	if k == 0 {
		k = 2
	}
	var space feature.Space
	switch opts.Space {
	case Polar:
		space = feature.Polar
	case Rect:
		space = feature.Rect
	default:
		return nil, fmt.Errorf("tsq: unknown space %d", int(opts.Space))
	}
	coreOpts := core.Options{
		Schema:     feature.Schema{Space: space, K: k, Moments: !opts.NoMoments},
		PageSize:   opts.PageSize,
		RTree:      rtree.Options{MaxEntries: opts.NodeCapacity},
		Backing:    opts.Backing,
		CachePages: opts.CachePages,
	}
	s, err := core.NewStore(opts.Length, max(opts.Shards, 1), coreOpts)
	if err != nil {
		return nil, err
	}
	return &DB{eng: s.Engine()}, nil
}

// MustOpen is Open for static configurations; it panics on error.
func MustOpen(opts Options) *DB {
	db, err := Open(opts)
	if err != nil {
		panic(err)
	}
	return db
}

// Insert stores a named series. Names must be unique; the length must
// match Options.Length and every value must be finite.
func (db *DB) Insert(name string, values []float64) error {
	_, err := db.eng.Insert(name, values)
	return err
}

// Len returns the number of stored series.
func (db *DB) Len() int { return db.eng.Len() }

// Length returns the fixed series length.
func (db *DB) Length() int { return db.eng.Length() }

// Names returns the stored series names in insertion order (a consistent
// snapshot, also under concurrent writes).
func (db *DB) Names() []string {
	return db.eng.Names()
}

// Series returns a copy of the stored values for a name.
func (db *DB) Series(name string) ([]float64, error) {
	id, ok := db.eng.IDByName(name)
	if !ok {
		return nil, fmt.Errorf("tsq: %w %q", core.ErrUnknownSeries, name)
	}
	return db.eng.Series(id)
}

// Delete removes a series by name. It reports whether the name was
// present. The name becomes available for re-insertion; storage pages
// occupied by the old values are not reclaimed.
func (db *DB) Delete(name string) bool {
	return db.eng.Delete(name)
}

// Engine exposes the underlying query engine for advanced use (experiment
// harnesses, ablations). Its dynamic type is core's one-shard DB handle
// iff the store has one shard. Most callers should use the DB methods.
func (db *DB) Engine() core.Engine { return db.eng }

// Shards returns the number of hash partitions the store runs with.
func (db *DB) Shards() int { return db.eng.Shards() }

// Compact rebuilds the storage pages, reclaiming space left behind by
// Delete, and re-packs the index with STR bulk loading. On a
// disk-backed store it rewrites the page files into a fresh generation
// and removes the old one. It returns the number of pages reclaimed. The
// store compacts shard by shard, stalling writers on at most one shard at a
// time.
func (db *DB) Compact() (int, error) {
	return db.eng.Compact()
}

// Close releases backing storage — the page memory of a memory store, the
// scratch page files of a disk-backed one. It waits for the reads in
// flight, and every read after it fails.
func (db *DB) Close() error { return db.eng.Close() }

// PoolStats aggregates buffer-pool counters across the store's relations
// (and shards). All fields are zero on a memory store, which has no pool.
type PoolStats = core.PoolStats

// PoolStats reports the store's aggregated buffer-pool counters: cache
// hits, misses (physical reads), evictions, and current resident/pinned
// frames. DiskBacked reports whether pages live in files rather than
// memory.
func (db *DB) PoolStats() PoolStats { return db.eng.PoolStats() }
