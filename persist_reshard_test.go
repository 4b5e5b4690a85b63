package tsq_test

// Snapshot re-sharding coverage: a store serialized at one shard count and
// loaded at another must answer every query kind identically to a fresh
// batch build at the target count.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	tsq "repro"
)

func TestSnapshotReshardAllKinds(t *testing.T) {
	const (
		count  = 90
		length = 64
		seed   = 11
	)
	walks := tsq.RandomWalks(count, length, seed)
	build := func(shards int) *tsq.DB {
		db, err := tsq.Open(tsq.Options{Length: length, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.InsertBulk(walks); err != nil {
			t.Fatal(err)
		}
		return db
	}
	probe := tsq.RandomWalks(1, 16, 3)[0].Values

	for _, tc := range []struct{ from, to int }{
		{1, 4}, // one-shard snapshot re-partitioned on load
		{4, 1}, // four-shard snapshot collapsed to one shard
		{4, 3}, // shard count changed outright
	} {
		t.Run(fmt.Sprintf("%d-to-%d", tc.from, tc.to), func(t *testing.T) {
			src := build(tc.from)
			var buf bytes.Buffer
			if _, err := src.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := tsq.ReadFromShards(&buf, tc.to)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Shards() != tc.to {
				t.Fatalf("loaded store runs %d shards, want %d", loaded.Shards(), tc.to)
			}
			fresh := build(tc.to)
			if loaded.Len() != fresh.Len() {
				t.Fatalf("loaded %d series, fresh %d", loaded.Len(), fresh.Len())
			}

			// Range (planned and forced).
			for _, opts := range [][]tsq.QueryOpt{
				{tsq.With(tsq.UseAuto)},
				{tsq.With(tsq.UseIndex)},
				{tsq.With(tsq.UseScan)},
			} {
				got, _, err := loaded.RangeByName("W0008", 3, tsq.MovingAverage(10), opts...)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := fresh.RangeByName("W0008", 3, tsq.MovingAverage(10), opts...)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("range answers diverge after re-shard (opts %v)", opts)
				}
			}

			// NN.
			gotNN, _, err := loaded.NNByName("W0013", 6, tsq.Identity(), tsq.With(tsq.UseAuto))
			if err != nil {
				t.Fatal(err)
			}
			wantNN, _, err := fresh.NNByName("W0013", 6, tsq.Identity(), tsq.With(tsq.UseAuto))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotNN, wantNN) {
				t.Fatal("NN answers diverge after re-shard")
			}

			// Self join.
			gotSJ, _, err := loaded.SelfJoin(1, tsq.MovingAverage(10), tsq.JoinIndexTransform)
			if err != nil {
				t.Fatal(err)
			}
			wantSJ, _, err := fresh.SelfJoin(1, tsq.MovingAverage(10), tsq.JoinIndexTransform)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotSJ, wantSJ) {
				t.Fatal("self-join pairs diverge after re-shard")
			}

			// Two-sided join.
			gotJ, _, err := loaded.JoinTwoSided(1, tsq.Reverse().Then(tsq.MovingAverage(10)), tsq.MovingAverage(10))
			if err != nil {
				t.Fatal(err)
			}
			wantJ, _, err := fresh.JoinTwoSided(1, tsq.Reverse().Then(tsq.MovingAverage(10)), tsq.MovingAverage(10))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotJ, wantJ) {
				t.Fatal("two-sided join pairs diverge after re-shard")
			}

			// Subsequence.
			gotS, _, err := loaded.Subsequence(probe, 6)
			if err != nil {
				t.Fatal(err)
			}
			wantS, _, err := fresh.Subsequence(probe, 6)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotS, wantS) {
				t.Fatal("subsequence answers diverge after re-shard")
			}
		})
	}
}
