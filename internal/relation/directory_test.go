package relation

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
)

// TestDirectoryAgainstMap drives a relation with random operations and
// compares it, after every step, with the plainest possible oracle: a
// map[int64][]float64 and the list of ids in insertion order. The ids come
// the ways a store's ids do — every id in arrival order shuffled a little,
// the id = s mod 4 subsequence one shard of four sees, and runs separated
// by gaps of a million (ids burned by failed inserts and updates) — through
// all three insert paths; replacements keep and change the record size;
// duplicate, unknown and negative ids must fail and change nothing.
// Memory- and disk-backed. The seed is logged for replay.
func TestDirectoryAgainstMap(t *testing.T) {
	const seed = 20260927
	t.Logf("seed %d", seed)
	for _, disk := range []bool{false, true} {
		for _, pattern := range []string{"dense", "mod4", "gaps"} {
			rng := rand.New(rand.NewSource(seed))
			var r *Relation
			if disk {
				var err error
				if r, err = NewDisk(filepath.Join(t.TempDir(), pattern+".pages"), 128, 8); err != nil {
					t.Fatal(err)
				}
				defer r.Close()
			} else {
				r = New(128)
			}
			r.KeepHeads()

			// fresh hands out unused ids in the pattern's order: a window of
			// upcoming ids, drawn from at random, so arrival is out of order.
			next, window := int64(rng.Intn(4)), []int64(nil)
			fresh := func() int64 {
				for len(window) < 8 {
					window = append(window, next)
					switch pattern {
					case "dense":
						next++
					case "mod4":
						next += 4
					case "gaps":
						next++
						if rng.Intn(16) == 0 {
							next += 1_000_000
						}
					}
				}
				i := rng.Intn(len(window))
				id := window[i]
				window = append(window[:i], window[i+1:]...)
				return id
			}
			record := func(n int) []float64 {
				vec := make([]float64, 2*n)
				for i := range vec {
					vec[i] = rng.NormFloat64()
				}
				return vec
			}

			want := map[int64][]float64{}
			var order []int64
			check := func(step int, op string) {
				t.Helper()
				if r.Len() != len(order) || !reflect.DeepEqual(r.IDs(), order) && len(order) > 0 {
					t.Fatalf("%s disk=%t step %d (%s): ids %v, want %v", pattern, disk, step, op, r.IDs(), order)
				}
				for slot, id := range order {
					if got, ok := r.Slot(id); !ok || int(got) != slot {
						t.Fatalf("%s disk=%t step %d (%s): id %d at slot %d (%t), want %d", pattern, disk, step, op, id, got, ok, slot)
					}
					got, err := r.Get(id)
					if err != nil || !reflect.DeepEqual(got, want[id]) {
						t.Fatalf("%s disk=%t step %d (%s): id %d reads %v (%v), want %v", pattern, disk, step, op, id, got, err, want[id])
					}
					v, err := r.View(id)
					if err != nil || len(v.Head) != min(len(got)/2, HeadCoeffs) {
						t.Fatalf("%s disk=%t step %d (%s): id %d head of %d (%v)", pattern, disk, step, op, id, len(v.Head), err)
					}
					for f, h := range v.Head {
						if h != complex(got[2*f], got[2*f+1]) {
							t.Fatalf("%s disk=%t step %d (%s): id %d head[%d] = %v, record has (%v, %v)", pattern, disk, step, op, id, f, h, got[2*f], got[2*f+1])
						}
					}
				}
				// Ids never stored — the holes of the pattern, the ids still
				// in the window, a negative one — resolve to nothing.
				for _, id := range append([]int64{-1, -1 << 40, next, next + 1<<20}, window...) {
					if _, ok := r.Slot(id); ok {
						t.Fatalf("%s disk=%t step %d (%s): absent id %d has a slot", pattern, disk, step, op, id)
					}
					if _, err := r.Get(id); err == nil {
						t.Fatalf("%s disk=%t step %d (%s): absent id %d reads", pattern, disk, step, op, id)
					}
				}
				if pattern == "mod4" && len(order) > 0 {
					if _, ok := r.Slot(order[0] + 1); ok {
						t.Fatalf("%s step %d: a sibling shard's id has a slot", pattern, step)
					}
				}
			}

			for step := 0; step < 300; step++ {
				var (
					op  string
					err error
				)
				switch k := rng.Intn(10); {
				case k < 5 || len(order) == 0:
					id, vec := fresh(), record(1+rng.Intn(40))
					switch step % 3 {
					case 0:
						op, err = "Insert", r.Insert(id, vec)
					case 1:
						op, err = "InsertRaw", r.InsertRaw(id, encodeFloats(vec))
					default:
						op, err = "InsertOwned", r.InsertOwned(id, encodeFloats(vec))
					}
					want[id], order = vec, append(order, id)
				case k < 7:
					// Same size: the pages are overwritten in place.
					id := order[rng.Intn(len(order))]
					vec := record(len(want[id]) / 2)
					op, err = "Replace in place", r.Replace(id, vec)
					want[id] = vec
				case k < 8:
					id := order[rng.Intn(len(order))]
					vec := record(len(want[id])/2 + 1 + rng.Intn(8))
					op, err = "Replace resized", r.Replace(id, vec)
					want[id] = vec
				case k < 9:
					id := order[rng.Intn(len(order))]
					op = "duplicate insert"
					for _, e := range []error{
						r.Insert(id, record(3)), r.InsertRaw(id, encodeFloats(record(3))), r.InsertOwned(id, encodeFloats(record(3))),
					} {
						if e == nil {
							t.Fatalf("%s disk=%t step %d: duplicate id %d accepted", pattern, disk, step, id)
						}
					}
				default:
					op = "unknown id"
					if r.Replace(next+7, record(3)) == nil || r.Replace(-3, record(3)) == nil || r.Insert(-3, record(3)) == nil {
						t.Fatalf("%s disk=%t step %d: unknown or negative id accepted", pattern, disk, step)
					}
					if _, e := r.View(next + 7); e == nil {
						t.Fatalf("%s disk=%t step %d: unknown id viewed", pattern, disk, step)
					}
				}
				if err != nil {
					t.Fatalf("%s disk=%t step %d (%s): %v", pattern, disk, step, op, err)
				}
				check(step, op)
			}
		}
	}
}

// TestDirectoryPagesAreLazy: a page of ids none of which was stored costs
// its table entry and nothing else.
func TestDirectoryPagesAreLazy(t *testing.T) {
	var d directory
	d.set(5, 0)
	d.set(3_000_000, 1)
	allocated := 0
	for _, pg := range d.pages {
		if pg != nil {
			allocated++
		}
	}
	if want := 3_000_000>>dirPageBits + 1; len(d.pages) != want || allocated != 2 {
		t.Fatalf("%d table entries (want %d), %d pages allocated (want 2)", len(d.pages), want, allocated)
	}
	for id, want := range map[int64]int32{5: 0, 3_000_000: 1} {
		if got, ok := d.get(id); !ok || got != want {
			t.Fatalf("id %d -> slot %d (%t), want %d", id, got, ok, want)
		}
	}
	for _, id := range []int64{-1, 0, 4, 6, 1024, 2_999_999, 3_000_001, 1 << 50} {
		if _, ok := d.get(id); ok {
			t.Fatalf("absent id %d has a slot", id)
		}
	}
}
