package rtree

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
)

func randomItems(n, dims int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		lo := make([]float64, dims)
		hi := make([]float64, dims)
		for d := 0; d < dims; d++ {
			lo[d] = rng.NormFloat64() * 10
			hi[d] = lo[d] // degenerate points, like the feature index
		}
		items[i] = Item{Rect: geom.Rect{Lo: lo, Hi: hi}, ID: int64(i)}
	}
	return items
}

// mutatedTree is 400 inserts and 40 deletes at M = 8: splits, reinsertion,
// condensation. It returns the items inserted; every third of the first 120
// is gone again.
func mutatedTree(t testing.TB) (*Tree, []Item) {
	t.Helper()
	tr := MustNew(3, Options{MaxEntries: 8})
	items := randomItems(400, 3, 99)
	for _, it := range items {
		if err := tr.Insert(it.Rect, it.ID); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 120; i += 3 {
		if !tr.Delete(items[i].Rect, items[i].ID) {
			t.Fatalf("delete %d failed", i)
		}
	}
	return tr, items
}

func encodeTree(t testing.TB, tr *Tree, remap func(int64) (int64, bool)) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.EncodeBinary(&buf, remap); err != nil {
		t.Fatalf("EncodeBinary: %v", err)
	}
	return buf.Bytes()
}

// TestSerialRoundTrip: encode -> decode -> encode must be byte-for-byte
// identical, the decoded tree must pass full invariant checking, and every
// item must come back with its rect and ID.
func TestSerialRoundTrip(t *testing.T) {
	for _, size := range []int{0, 1, 5, 40, 41, 500, 3000} {
		tr := MustNew(4, Options{})
		if err := tr.BulkLoad(randomItems(size, 4, int64(size)+1)); err != nil {
			t.Fatalf("size %d: BulkLoad: %v", size, err)
		}
		enc1 := encodeTree(t, tr, nil)
		got, err := DecodeBinary(bytes.NewReader(enc1))
		if err != nil {
			t.Fatalf("size %d: DecodeBinary: %v", size, err)
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("size %d: decoded tree invalid: %v", size, err)
		}
		if got.Len() != size || got.Dims() != 4 || got.Height() != tr.Height() {
			t.Fatalf("size %d: decoded shape %d/%d/%d, want %d/4/%d",
				size, got.Len(), got.Dims(), got.Height(), size, tr.Height())
		}
		enc2 := encodeTree(t, got, nil)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("size %d: re-encode not byte-identical (%d vs %d bytes)", size, len(enc1), len(enc2))
		}
		// Item-level equality.
		want := map[int64]geom.Rect{}
		tr.All(func(it Item) bool { want[it.ID] = it.Rect; return true })
		n := 0
		got.All(func(it Item) bool {
			n++
			w, ok := want[it.ID]
			if !ok {
				t.Fatalf("size %d: decoded unknown id %d", size, it.ID)
			}
			for d := 0; d < 4; d++ {
				if it.Rect.Lo[d] != w.Lo[d] || it.Rect.Hi[d] != w.Hi[d] {
					t.Fatalf("size %d id %d: rect mismatch", size, it.ID)
				}
			}
			return true
		})
		if n != size {
			t.Fatalf("size %d: decoded %d items", size, n)
		}
	}
}

// TestSerialRoundTripAfterMutation serialises a tree shaped by real
// insert/delete traffic (splits, reinsertion, condensation), not just a
// packed bulk load.
func TestSerialRoundTripAfterMutation(t *testing.T) {
	tr, items := mutatedTree(t)
	enc := encodeTree(t, tr, nil)
	got, err := DecodeBinary(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("decoded tree invalid: %v", err)
	}
	if !bytes.Equal(enc, encodeTree(t, got, nil)) {
		t.Fatal("re-encode not byte-identical after mutation history")
	}
	// The decoded tree must remain fully mutable.
	for i := 0; i < 120; i += 3 {
		if err := got.Insert(items[i].Rect, items[i].ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("decoded tree invalid after further inserts: %v", err)
	}
	if got.Len() != tr.Len()+40 {
		t.Fatalf("len %d after re-inserts, want %d", got.Len(), tr.Len()+40)
	}
}

// TestSerialRemap checks ID translation on the way out (live IDs with
// gaps -> dense record positions) and that a missing mapping fails loudly.
func TestSerialRemap(t *testing.T) {
	tr := MustNew(2, Options{})
	items := randomItems(50, 2, 7)
	for i := range items {
		items[i].ID = int64(i * 3) // gappy IDs
	}
	if err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	remap := func(id int64) (int64, bool) { return id / 3, true }
	got, err := DecodeBinary(bytes.NewReader(encodeTree(t, tr, remap)))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	got.All(func(it Item) bool { seen[it.ID] = true; return true })
	for i := int64(0); i < 50; i++ {
		if !seen[i] {
			t.Fatalf("dense id %d missing after remap", i)
		}
	}
	var buf bytes.Buffer
	err = tr.EncodeBinary(&buf, func(id int64) (int64, bool) { return 0, false })
	if err == nil {
		t.Fatal("encode with failing remap must error")
	}
}

// TestSerialDecodeRejectsCorruption flips bytes across the stream and
// requires decode to fail or produce a tree that still passes invariants
// (a flipped coordinate can yield a valid-but-different tree only if MBRs
// still agree; structural fields must always be caught).
func TestSerialDecodeRejectsCorruption(t *testing.T) {
	tr := MustNew(3, Options{})
	if err := tr.BulkLoad(randomItems(300, 3, 5)); err != nil {
		t.Fatal(err)
	}
	enc := encodeTree(t, tr, nil)
	// Truncations must always fail.
	for _, cut := range []int{1, 4, 10, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeBinary(bytes.NewReader(enc[:cut])); err == nil {
			t.Fatalf("decode of %d/%d-byte truncation succeeded", cut, len(enc))
		}
	}
	// Header corruption: wrong magic.
	bad := append([]byte(nil), enc...)
	bad[0] = 'X'
	if _, err := DecodeBinary(bytes.NewReader(bad)); err == nil {
		t.Fatal("decode with bad magic succeeded")
	}
	// Structural corruption: claim a different height.
	bad = append(bad[:0], enc...)
	bad[10]++
	if _, err := DecodeBinary(bytes.NewReader(bad)); err == nil {
		t.Fatal("decode with corrupted height succeeded")
	}
	// Unknown flag bits: nothing this package wrote ever set them.
	bad = append(bad[:0], enc...)
	bad[9] |= 0x80
	if _, err := DecodeBinary(bytes.NewReader(bad)); err == nil {
		t.Fatal("decode with unknown flags succeeded")
	}
	// A header that promises far more than the stream holds is refused for
	// what is missing, at the price of what was there.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBinary(bytes.NewReader(hugeClaim))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decode of an 18-byte stream claiming 65,535 entries of 255 dimensions succeeded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("decode of an 18-byte stream allocated %d bytes before failing with %q", got, err)
	}
}

// hugeClaim is a well-formed header and root-node header — 255 dimensions,
// M = 65,535, m = 1, one leaf of 65,535 entries — followed by nothing: 18
// bytes that ask for a 267 MB slab.
var hugeClaim = []byte{
	'R', 'T', 'S', '1',
	255,        // dims
	0xff, 0xff, // M
	1, 0, // m
	1,                // flags
	1,                // height
	0xff, 0xff, 0, 0, // size
	0,          // root level
	0xff, 0xff, // root count
}
