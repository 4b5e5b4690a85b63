package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// BenchmarkCandidateReach times the path from a candidate's id to its
// spectrum head — directory, slot, slab — which is what
// every Lemma 1 candidate and every scanned row pays before its first
// distance term. Ids arrive in random order, as an index traversal hands
// them over. "dense" is a single store holding every id; "mod4" is one
// shard of four, which holds about every fourth id of the global sequence,
// so its directory pages are three quarters empty. Each runs resident and
// disk-backed (the heads are memory either way; the variant is here so the
// disk path cannot grow a detour unnoticed). CI runs it once per push
// (-benchtime 1x) as a rot check.
func BenchmarkCandidateReach(b *testing.B) {
	const series, length = 8192, 64
	rng := rand.New(rand.NewSource(15))
	names := make([]string, series)
	data := make([][]float64, series)
	for i := range data {
		names[i], data[i] = fmt.Sprintf("W%05d", i), dataset.RandomWalk(rng, length)
	}
	for _, disk := range []bool{false, true} {
		opts := Options{}
		backing := "resident"
		if disk {
			opts.Backing, opts.CachePages, backing = b.TempDir(), 256, "disk"
		}
		dense, err := NewDB(length, opts)
		if err != nil {
			b.Fatal(err)
		}
		defer dense.Close()
		if err := dense.InsertBulk(names, data); err != nil {
			b.Fatal(err)
		}
		if disk {
			opts.Backing = b.TempDir()
		}
		sharded, err := NewStore(length, 4, opts)
		if err != nil {
			b.Fatal(err)
		}
		defer sharded.Close()
		if err := sharded.InsertBulk(names, data); err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			pattern string
			db      *shard
		}{{"dense", dense.only()}, {"mod4", sharded.shards[0]}} {
			ids := append([]int64(nil), c.db.ids...)
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			b.Run(c.pattern+"/"+backing, func(b *testing.B) {
				var sum float64
				for i := 0; i < b.N; i++ {
					rv, err := c.db.freqRel.View(ids[i%len(ids)])
					if err != nil {
						b.Fatal(err)
					}
					sum += real(rv.Head[0])
				}
				reachSink = sum
			})
		}
	}
}

// reachSink keeps the benchmark's reads alive.
var reachSink float64
