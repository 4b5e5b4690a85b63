package tsq

import (
	"io"

	"repro/internal/core"
)

// InsertBulk loads a batch into an empty DB, building the index with
// sort-tile-recursive bulk loading — roughly an order of magnitude faster
// than InsertAll for large batches, with better-packed index nodes. The DB
// must be empty.
func (db *DB) InsertBulk(batch []NamedSeries) error {
	names := make([]string, len(batch))
	values := make([][]float64, len(batch))
	for i, s := range batch {
		names[i] = s.Name
		values[i] = s.Values
	}
	return db.eng.InsertBulk(names, values)
}

// WriteTo serializes the DB in a compact binary snapshot format (TSQ4):
// schema and raw series plus the derived state — the stored half of every
// spectrum, feature points, and each shard's packed R*-tree, serialized
// byte-for-byte — in sections that each carry their byte length and a
// CRC32-C, checked before anything in them is used. Nothing the DB has
// served is written, so the same store writes the same bytes. Loading a TSQ4 snapshot at the same shard count
// validates and adopts the trees directly, so cold start costs one
// sequential read instead of a full rebuild (no extraction, no FFT, no STR
// sort). It returns the number of bytes written.
func (db *DB) WriteTo(w io.Writer) (int64, error) {
	return db.eng.WriteTo(w)
}

// ReadFrom loads a snapshot produced by WriteTo, adopting its serialized
// indexes (or, when re-sharded, reusing its precomputed spectra and feature
// points and only re-packing the trees). The snapshot records its own
// feature schema and shard count; storage options of the returned DB take
// defaults. A snapshot holds the store and nothing it has served: at the
// recorded shard count the loaded DB plans every query as the DB that
// wrote it does. The earlier
// TSQ1, TSQ2 and TSQ3 formats are refused by name; a TSQ3 file is migrated
// by loading it with a build that still reads it and saving it again.
func ReadFrom(r io.Reader) (*DB, error) {
	return ReadFromShards(r, 0)
}

// ReadFromShards is ReadFrom with an explicit shard count: 0 honors the
// count recorded in the snapshot, any n from 1 to 65,535 (the most a
// snapshot records) re-partitions the store to n shards on load — always possible, because shard assignment is a pure hash
// of the series name, so the snapshot format carries no per-shard layout
// the target count must match (though only a matching count can adopt the
// packed trees as-is).
func ReadFromShards(r io.Reader, shards int) (*DB, error) {
	return readEngine(r, core.Options{}, shards)
}

// ReadFromOptions is ReadFrom with explicit storage options — notably
// Backing and CachePages, to load a snapshot into a disk-backed store
// that can exceed RAM. Schema fields (Length, K, Space, NoMoments) are
// ignored: the snapshot records its own. Shards selects partitioning as
// in ReadFromShards (0 honors the snapshot).
func ReadFromOptions(r io.Reader, opts Options) (*DB, error) {
	coreOpts := core.Options{
		PageSize:   opts.PageSize,
		Backing:    opts.Backing,
		CachePages: opts.CachePages,
	}
	return readEngine(r, coreOpts, opts.Shards)
}

func readEngine(r io.Reader, coreOpts core.Options, shards int) (*DB, error) {
	eng, err := core.ReadEngine(r, coreOpts, shards)
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng}, nil
}
