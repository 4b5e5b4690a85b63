package rtree

import (
	"bytes"
	"testing"
)

// FuzzDecodeBinary feeds DecodeBinary arbitrary bytes. It must never panic,
// and whatever it accepts must either be refused by CheckInvariants with an
// error — Adopt's gate — or be a tree in working order: it re-encodes to
// exactly the bytes it was read from, and a range query over its own bounds
// finds every item it says it holds.
func FuzzDecodeBinary(f *testing.F) {
	for _, size := range []int{0, 1, 41, 500} {
		tr := MustNew(4, Options{})
		if err := tr.BulkLoad(randomItems(size, 4, int64(size)+1)); err != nil {
			f.Fatal(err)
		}
		f.Add(encodeTree(f, tr, nil))
	}
	churned, _ := mutatedTree(f)
	f.Add(encodeTree(f, churned, nil))
	f.Add(hugeClaim)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		tree, err := DecodeBinary(r)
		if err != nil {
			return
		}
		if tree.CheckInvariants() != nil {
			return
		}
		consumed := data[:len(data)-r.Len()]
		var out bytes.Buffer
		if err := tree.EncodeBinary(&out, nil); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("decoded %d bytes, re-encoded to %d different ones", len(consumed), out.Len())
		}
		if ids, _ := searchIDs(tree, tree.Bounds(), identity); len(ids) != tree.Len() {
			t.Fatalf("a range query over the tree's bounds found %d of its %d items", len(ids), tree.Len())
		}
	})
}
