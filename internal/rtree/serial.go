package rtree

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Versioned binary encoding of a packed tree. The on-disk form of a node
// is exactly its columns — all low corners, then all high corners, then the
// leaf IDs — so a snapshot round-trip is byte-for-byte stable and decode
// reads each node straight into place: no sorting, no reinsertion, no
// feature recomputation — the "read + validate + adopt" cold-start path.
//
// Layout (little endian throughout, matching the snapshot format):
//
//	magic   "RTS1"
//	dims    uint8
//	maxE    uint16
//	minE    uint16
//	flags   uint8   (bit 0: forced reinsertion enabled)
//	height  uint8
//	size    uint32  (total stored items)
//	root node, pre-order:
//	  level  uint8
//	  count  uint16
//	  slab   2*count*dims float64 (lows entry-major, then highs)
//	  ids    count int64          (leaf nodes only)
//	  children                    (internal nodes, in entry order)
//	magic   "RTE1"
const (
	serialMagic    = "RTS1"
	serialEndMagic = "RTE1"
)

// EncodeBinary writes the tree in the versioned binary format. remap, if
// non-nil, rewrites each stored item ID on the way out — snapshots use it
// to translate live IDs (which have gaps after deletes) into the dense
// record positions the loader will assign.
func (t *Tree) EncodeBinary(w io.Writer, remap func(id int64) (int64, bool)) error {
	if t.dims > math.MaxUint8 {
		return fmt.Errorf("rtree: %d dimensions too many to serialise", t.dims)
	}
	if t.maxEntries > math.MaxUint16 {
		return fmt.Errorf("rtree: MaxEntries %d too large to serialise", t.maxEntries)
	}
	if t.height > math.MaxUint8 {
		return fmt.Errorf("rtree: height %d too large to serialise", t.height)
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(serialMagic)
	bw.WriteByte(uint8(t.dims))
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(t.maxEntries))
	bw.Write(u16[:])
	binary.LittleEndian.PutUint16(u16[:], uint16(t.minEntries))
	bw.Write(u16[:])
	var flags uint8
	if t.reinsert {
		flags |= 1
	}
	bw.WriteByte(flags)
	bw.WriteByte(uint8(t.height))
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(t.size))
	bw.Write(u32[:])
	if err := t.encodeNode(bw, t.root, remap); err != nil {
		return err
	}
	bw.WriteString(serialEndMagic)
	return bw.Flush()
}

func (t *Tree) encodeNode(bw *bufio.Writer, n *node, remap func(int64) (int64, bool)) error {
	bw.WriteByte(uint8(n.level))
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(n.count()))
	bw.Write(u16[:])
	var u64 [8]byte
	for _, column := range [2][]float64{n.lo, n.hi} {
		for _, v := range column {
			binary.LittleEndian.PutUint64(u64[:], math.Float64bits(v))
			bw.Write(u64[:])
		}
	}
	for _, id := range n.ids {
		if remap != nil {
			mapped, ok := remap(id)
			if !ok {
				return fmt.Errorf("rtree: no remapping for stored id %d", id)
			}
			id = mapped
		}
		binary.LittleEndian.PutUint64(u64[:], uint64(id))
		bw.Write(u64[:])
	}
	for _, kid := range n.kids {
		if err := t.encodeNode(bw, kid, remap); err != nil {
			return err
		}
	}
	return nil
}

// DecodeBinary reads a tree written by EncodeBinary. The structural
// parameters (dims, fan-out, reinsertion flag) come from the stream; the
// caller should verify them against its expectations and run
// CheckInvariants before adopting the tree.
func DecodeBinary(r io.Reader) (*Tree, error) {
	d := &serialDecoder{r: r}
	magic := d.bytes(4)
	if d.err != nil {
		return nil, fmt.Errorf("rtree: decode header: %w", d.err)
	}
	if string(magic) != serialMagic {
		return nil, fmt.Errorf("rtree: bad tree magic %q", magic)
	}
	dims := int(d.u8())
	maxE := int(d.u16())
	minE := int(d.u16())
	flags := d.u8()
	height := int(d.u8())
	size := int(d.u32())
	if d.err != nil {
		return nil, fmt.Errorf("rtree: decode header: %w", d.err)
	}
	if dims < 1 {
		return nil, fmt.Errorf("rtree: decoded dims %d invalid", dims)
	}
	if maxE < 4 || minE < 1 || minE > maxE/2 {
		return nil, fmt.Errorf("rtree: decoded fan-out M=%d m=%d invalid", maxE, minE)
	}
	if height < 1 {
		return nil, fmt.Errorf("rtree: decoded height %d invalid", height)
	}
	if flags&^1 != 0 {
		return nil, fmt.Errorf("rtree: decoded flags %#x unknown", flags)
	}
	t := &Tree{
		dims:       dims,
		maxEntries: maxE,
		minEntries: minE,
		reinsert:   flags&1 != 0,
		height:     height,
	}
	root, leaves, err := t.decodeNode(d, height-1)
	if err != nil {
		return nil, err
	}
	if leaves != size {
		return nil, fmt.Errorf("rtree: decoded %d leaf entries, header says %d", leaves, size)
	}
	t.root = root
	t.size = size
	end := d.bytes(4)
	if d.err != nil {
		return nil, fmt.Errorf("rtree: decode trailer: %w", d.err)
	}
	if string(end) != serialEndMagic {
		return nil, fmt.Errorf("rtree: bad tree end marker %q", end)
	}
	return t, nil
}

// decodeNode reads one node (recursively) that must sit at wantLevel.
// It returns the node and the number of leaf entries under it.
func (t *Tree) decodeNode(d *serialDecoder, wantLevel int) (*node, int, error) {
	level := int(d.u8())
	count := int(d.u16())
	if d.err != nil {
		return nil, 0, fmt.Errorf("rtree: decode node: %w", d.err)
	}
	if level != wantLevel {
		return nil, 0, fmt.Errorf("rtree: node at level %d, expected %d", level, wantLevel)
	}
	if count > t.maxEntries {
		return nil, 0, fmt.Errorf("rtree: node with %d entries exceeds M=%d", count, t.maxEntries)
	}
	// The stream holds the node's columns verbatim. They are sized by what
	// arrives, not by the header's count (see serialDecoder.floats).
	n := &node{level: level}
	n.lo = d.floats(count * t.dims)
	n.hi = d.floats(count * t.dims)
	if d.err != nil {
		return nil, 0, fmt.Errorf("rtree: decode slab: %w", d.err)
	}
	for k := range n.lo {
		if n.lo[k] > n.hi[k] || math.IsNaN(n.lo[k]) || math.IsNaN(n.hi[k]) {
			return nil, 0, fmt.Errorf("rtree: decoded rect not canonical in dim %d", k%t.dims)
		}
	}
	if level == 0 {
		n.ids = make([]int64, count)
		for i := range n.ids {
			n.ids[i] = int64(d.u64())
		}
		if d.err != nil {
			return nil, 0, fmt.Errorf("rtree: decode leaf ids: %w", d.err)
		}
		return n, count, nil
	}
	if count == 0 {
		return nil, 0, fmt.Errorf("rtree: internal node at level %d with no children", level)
	}
	var leaves int
	n.kids = make([]*node, count)
	for i := range n.kids {
		child, sub, err := t.decodeNode(d, level-1)
		if err != nil {
			return nil, 0, err
		}
		n.kids[i] = child
		leaves += sub
	}
	return n, leaves, nil
}

// serialDecoder wraps sticky-error little-endian reads.
type serialDecoder struct {
	r   io.Reader
	err error
	buf [4096]byte
}

func (d *serialDecoder) bytes(n int) []byte {
	if d.err != nil {
		return d.buf[:n]
	}
	if _, err := io.ReadFull(d.r, d.buf[:n]); err != nil {
		d.err = err
	}
	return d.buf[:n]
}

func (d *serialDecoder) u8() uint8   { return d.bytes(1)[0] }
func (d *serialDecoder) u16() uint16 { return binary.LittleEndian.Uint16(d.bytes(2)) }
func (d *serialDecoder) u32() uint32 { return binary.LittleEndian.Uint32(d.bytes(4)) }
func (d *serialDecoder) u64() uint64 { return binary.LittleEndian.Uint64(d.bytes(8)) }

// floats reads n little-endian float64s, a buffer at a time, growing the
// result as they arrive: a header may promise 65,535 entries of 255
// dimensions in a stream a few bytes long, and what is allocated has to
// follow the bytes, not the promise. A node of the usual size is one read
// and one allocation.
func (d *serialDecoder) floats(n int) []float64 {
	var out []float64
	for len(out) < n {
		k := min(n-len(out), len(d.buf)/8)
		b := d.bytes(8 * k)
		if d.err != nil {
			return nil
		}
		out = slices.Grow(out, k)
		for i := 0; i < k; i++ {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])))
		}
	}
	return out
}
