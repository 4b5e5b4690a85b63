package core

// The record directory at the store level. Everything a store keeps per
// record — page ranges and heads in the relations, name, feature point
// and position in shard.recs — is indexed by the
// record's slot, and an id reaches its slot through the frequency
// relation's directory. These tests churn a store at random and, after
// every single operation, compare every live series' resolved state with a
// name-keyed mirror that knows nothing of ids or slots; retired ids must
// resolve to nothing. They fail the moment a write moves a record without
// moving its slot's entries — an append or an update that rewrites pages, a
// delete's swap, Compact's renumbering, a reload.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dft"
	"repro/internal/plan"
	"repro/internal/series"
	"repro/internal/transform"
)

// checkRecords compares every live series, resolved through the engine's
// id-keyed surface, with the mirror; retired holds ids the mirror saw
// replaced or deleted.
func (hs *headStore) checkRecords(t *testing.T, n int, retired map[int64]bool) {
	t.Helper()
	if hs.eng.Len() != len(hs.live) {
		t.Fatalf("%s: %d series stored, mirror has %d", hs.label, hs.eng.Len(), len(hs.live))
	}
	schema := hs.eng.Schema()
	for name, window := range hs.live {
		id, ok := hs.eng.IDByName(name)
		if !ok {
			t.Fatalf("%s: %s not stored", hs.label, name)
		}
		if retired[id] {
			t.Fatalf("%s: %s lives under retired id %d", hs.label, name, id)
		}
		if got := hs.eng.Name(id); got != name {
			t.Fatalf("%s: id %d of %s is named %q", hs.label, id, name, got)
		}
		if got, err := hs.eng.Series(id); err != nil || !reflect.DeepEqual(got, window) {
			t.Fatalf("%s: %s (id %d) reads another window (%v)", hs.label, name, id, err)
		}
		prep, ok := hs.eng.QueryPrep(id)
		if !ok {
			t.Fatalf("%s: %s (id %d) has no stored-record artifacts", hs.label, name, id)
		}
		// The spectrum a query observes is the insert path's computation on
		// the mirror's bits. Re-pinned from the full permuted spectrum to its
		// first n/2+1 coefficients when the store began keeping the half (the
		// rest are their conjugates), and then from the complex FFT's bits to
		// the real-input transform's, dft.HalfInto: every writer derives its
		// record with that one transform, which agrees with the complex FFT
		// to a few ulps, not bit for bit.
		if want := dft.HalfInto(nil, series.NormalForm(window)); !reflect.DeepEqual(prep.Spectrum, want) {
			t.Fatalf("%s: %s (id %d) serves another record's spectrum", hs.label, name, id)
		}
		// So is the feature point, appended to or not.
		p, _ := hs.eng.FeaturePoint(id)
		want, err := schema.Extract(window)
		if err != nil || !reflect.DeepEqual([]float64(p), prep.Point) {
			t.Fatalf("%s: %s (id %d) feature point disagrees with its own prep (%v)", hs.label, name, id, err)
		}
		if !reflect.DeepEqual(p, want) {
			t.Fatalf("%s: %s (id %d) is indexed at %v, its window extracts to %v", hs.label, name, id, p, want)
		}
	}
	for id := range retired {
		if name := hs.eng.Name(id); name != "" {
			t.Fatalf("%s: retired id %d still named %q", hs.label, id, name)
		}
		if _, ok := hs.eng.FeaturePoint(id); ok {
			t.Fatalf("%s: retired id %d still has a feature point", hs.label, id)
		}
		if _, ok := hs.eng.QueryPrep(id); ok {
			t.Fatalf("%s: retired id %d still has stored-record artifacts", hs.label, id)
		}
	}
	// Inside each store: the slot tables line up with the relations and with
	// each other.
	for si, db := range hs.dbs() {
		if len(db.recs) != db.freqRel.Len() || len(db.byName) != len(db.ids) {
			t.Fatalf("%s shard %d: %d records, %d spectra stored; %d names for %d live ids",
				hs.label, si, len(db.recs), db.freqRel.Len(), len(db.byName), len(db.ids))
		}
		live := 0
		for slot, id := range db.freqRel.IDs() {
			r := db.recs[slot]
			if r.point == nil {
				if r.name != "" || r.pos != 0 {
					t.Fatalf("%s shard %d: dead slot %d (id %d) keeps state", hs.label, si, slot, id)
				}
				continue
			}
			live++
			if db.byName[r.name] != id || db.ids[r.pos] != id {
				t.Fatalf("%s shard %d: slot %d holds %s at position %d, but the catalog has id %d there and %d under that name",
					hs.label, si, slot, r.name, r.pos, db.ids[r.pos], db.byName[r.name])
			}
		}
		if live != len(db.ids) {
			t.Fatalf("%s shard %d: %d live slots for %d live ids", hs.label, si, live, len(db.ids))
		}
	}
}

// churnChecked is churn one operation at a time, checking after each and
// retiring the ids deletes leave behind. A name that survives an operation
// keeps its id and its slot, whatever the operation: an update is the
// in-place overwrite an append is (until PR 23 it was delete + insert, and
// this test pinned "new id, new slot" for it). Every few steps one series
// also finds itself by name through the index and the scan: the whole path
// from a candidate id to a verdict.
func (hs *headStore) churnChecked(t *testing.T, n int, rng *rand.Rand, steps int, retired map[int64]bool) {
	t.Helper()
	type place struct {
		id   int64
		slot int32
	}
	places := func() map[string]place {
		out := make(map[string]place, len(hs.live))
		for name := range hs.live {
			id, _ := hs.eng.IDByName(name)
			slot, _ := shardsOf(hs.eng)[hs.eng.ShardOf(name)].freqRel.Slot(id)
			out[name] = place{id, slot}
		}
		return out
	}
	before := places()
	for step := 0; step < steps; step++ {
		hs.churn(t, n, rng, 1)
		after := places()
		for name, was := range before {
			now, ok := after[name]
			if !ok {
				retired[was.id] = true
			} else if now != was {
				t.Fatalf("%s: %s moved from id %d slot %d to id %d slot %d", hs.label, name, was.id, was.slot, now.id, now.slot)
			}
		}
		before = after
		hs.checkRecords(t, n, retired)
		if step%5 != 0 {
			continue
		}
		names := hs.names()
		name := names[rng.Intn(len(names))]
		id := before[name].id
		prep, _ := hs.eng.QueryPrep(id)
		q := NNQuery{Values: hs.live[name], K: 1, Transform: transform.Identity(n), Prep: prep}
		for _, run := range []func(NNQuery) ([]Result, ExecStats, error){pinNN(hs.eng, plan.Index), pinNN(hs.eng, plan.ScanFreq)} {
			got, _, err := run(q)
			if err != nil || len(got) != 1 || got[0].ID != id || got[0].Name != name || got[0].Dist > 1e-9 {
				t.Fatalf("%s: %s (id %d) does not find itself: %v (%v)", hs.label, name, id, got, err)
			}
		}
	}
}

func TestRecordDirectory(t *testing.T) {
	seed := int64(20260927)
	t.Logf("seed %d", seed)
	const count, n = 48, 32
	for _, shards := range []int{1, 4} {
		for _, disk := range []bool{false, true} {
			label := fmt.Sprintf("shards=%d/disk=%t", shards, disk)
			t.Run(label, func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed + int64(shards)))
				opts := headOptions(t, disk, count, n)
				hs := newHeadStore(t, label, shards, opts, n, dataset.RandomWalks(count, n, seed))
				retired := map[int64]bool{}
				hs.checkRecords(t, n, retired)
				hs.churnChecked(t, n, rng, 120, retired)

				// Compact renumbers every slot; ids survive it.
				if _, err := hs.eng.Compact(); err != nil {
					t.Fatal(err)
				}
				hs.label = label + " compacted"
				hs.checkRecords(t, n, retired)
				hs.churnChecked(t, n, rng, 40, retired)

				// A reload assigns dense ids afresh, so nothing is retired in
				// the loaded store; it must take further writes like any other.
				other := 5 - shards // 1 <-> 4
				for _, c := range []struct {
					label  string
					shards int
				}{
					{"tsq4 same shards", shards},
					{"tsq4 resharded", other},
				} {
					ld := hs.reload(t, c.label, hs.eng.WriteTo, c.shards, opts)
					// The loaded store gets a mirror of its own to churn.
					ld.live = make(map[string][]float64, len(hs.live))
					for name, w := range hs.live {
						ld.live[name] = w
					}
					ld.fresh = hs.fresh
					loaded := map[int64]bool{}
					ld.checkRecords(t, n, loaded)
					ld.churnChecked(t, n, rng, 25, loaded)
				}
			})
		}
	}
}
