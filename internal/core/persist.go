package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/feature"
	"repro/internal/geom"
	"repro/internal/relation"
	"repro/internal/rtree"
)

// The snapshot format, "TSQ4": a magic, then framed sections, little endian
// throughout.
//
//	magic   [4]byte  "TSQ4"
//	each section:
//	  tag     [4]byte
//	  size    uint64      payload bytes
//	  payload [size]byte
//	  crc     uint32      CRC32-C (Castagnoli) of tag, size and payload
//
// A snapshot is the store and nothing else: HEAD, SERS, DERV and SLAB, all
// four required, in this order.
//
//	HEAD  space uint8 (0 = rect, 1 = polar), k uint16, moments uint8 (0/1),
//	      length uint32 (series length, >= 4 and > k), shards uint16 (>= 1),
//	      count uint32
//	SERS  count times: nameLen uint16, name [nameLen]byte, values [length]float64
//	DERV  count times, in record order: point [dims]float64 (the indexed
//	      feature point), spectrum [⌊length/2⌋+1](re, im float64) — the
//	      frequency relation's record (half.go), adopted verbatim
//	SLAB  trees uint16, then per tree byteLen uint32 + tree [byteLen]byte
//	      (rtree binary encoding), one packed tree per shard
//
// What a store has served is not in its snapshot: the same store writes the
// same bytes whatever it has planned or executed.
// Snapshots of builds up to commit 5f712f0 carry two more sections after
// SLAB, the plan history (PLNH) and the cost constants (CCAL); a reader
// checks their size and checksum and discards them unread.
//
// Shard *assignment* is derived — a pure hash of the series name — so a
// snapshot can be loaded at any shard count; the recorded count is only the
// default when the loader does not override it. DERV and SLAB make cold
// start O(bytes read) instead of O(n log n) recomputation: tree leaf IDs are
// remapped at write time to dense record positions — exactly the IDs a
// loader assigns — so a load whose effective shard count matches the slab
// count validates and adopts each packed tree as-is (no feature extraction,
// no FFT, no STR sort; its structure, its leaf IDs and every leaf rectangle
// are checked, the rectangle bit for bit against its record's DERV point);
// at any other shard count the loader adopts the DERV
// points and spectra and only re-packs the trees.
//
// A reader streams: each series record goes to its shard's time relation as
// it is decoded, and each DERV spectrum to its shard's frequency relation,
// so a load holds the names, the feature points and the k-index leaf
// prefixes (128 bytes a record) in memory and nothing else of the records
// (loader). Bytes may reach the scratch page files before
// their section's checksum has been checked; no store is returned until
// every section has passed its size and checksum checks, and on any error
// the partly built store is closed and every file and directory it created
// is removed. No count or length in the file sizes an allocation — buffers
// and page memory grow with the bytes that actually arrive (decoder.appendN,
// Relation.Carve, a frequency relation reserving what its series took), and
// a shard is built when its first record arrives — so a corrupt or hostile
// header costs an error, not the process.
//
// The earlier formats are refused by name: the series-only TSQ1 and TSQ2,
// and TSQ3, whose sections had no sizes or checksums. A TSQ3 file becomes a
// TSQ4 one by loading it with a build that still reads it (up to commit
// 5f712f0) and saving it again.

// MaxShards is the most shards a store may have: HEAD and SLAB record the
// count in 16 bits.
const MaxShards = math.MaxUint16

var (
	snapshotMagic = [4]byte{'T', 'S', 'Q', '4'}

	headTag    = [4]byte{'H', 'E', 'A', 'D'}
	seriesTag  = [4]byte{'S', 'E', 'R', 'S'}
	derivedTag = [4]byte{'D', 'E', 'R', 'V'}
	slabTag    = [4]byte{'S', 'L', 'A', 'B'}
	// Retired sections: read past, never written.
	historyTag = [4]byte{'P', 'L', 'N', 'H'}
	costsTag   = [4]byte{'C', 'C', 'A', 'L'}
)

// castagnoli is the CRC32-C table every section checksum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// snapshotHeader is the decoded HEAD section.
type snapshotHeader struct {
	schema feature.Schema
	length int
	shards int
	count  int
}

// ---- writing ----

// snapshotWriter emits a snapshot through one buffer, checksumming the open
// section as its bytes go by. Its error is sticky: the first failure ends
// the write and every later call is a no-op.
type snapshotWriter struct {
	bw    *bufio.Writer
	n     int64
	crc   uint32
	err   error
	chunk [512]byte
}

func (w *snapshotWriter) put(p []byte) {
	if w.err != nil {
		return
	}
	w.crc = crc32.Update(w.crc, castagnoli, p)
	_, w.err = w.bw.Write(p)
	w.n += int64(len(p))
}

func (w *snapshotWriter) u16(v uint16) {
	binary.LittleEndian.PutUint16(w.chunk[:], v)
	w.put(w.chunk[:2])
}

func (w *snapshotWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// floats is the bulk-float fast path: snapshots are mostly float64 runs
// (series values, spectra, feature points), and encoding them through a
// chunk buffer runs an order of magnitude faster than binary.Write's
// reflection.
func (w *snapshotWriter) floats(vals []float64) {
	for len(vals) > 0 {
		n := min(len(vals), len(w.chunk)/8)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint64(w.chunk[8*i:], math.Float64bits(v))
		}
		w.put(w.chunk[:8*n])
		vals = vals[n:]
	}
}

// complexes writes a spectrum as (re, im) float64 pairs — the frequency
// relation's record layout.
func (w *snapshotWriter) complexes(vals []complex128) {
	for len(vals) > 0 {
		n := min(len(vals), len(w.chunk)/16)
		for i, c := range vals[:n] {
			binary.LittleEndian.PutUint64(w.chunk[16*i:], math.Float64bits(real(c)))
			binary.LittleEndian.PutUint64(w.chunk[16*i+8:], math.Float64bits(imag(c)))
		}
		w.put(w.chunk[:16*n])
		vals = vals[n:]
	}
}

// section frames the size payload bytes body writes: tag and size, the
// payload, then the checksum of all three, computed on the way through.
func (w *snapshotWriter) section(tag [4]byte, size int, body func()) {
	var frame [12]byte
	copy(frame[:4], tag[:])
	binary.LittleEndian.PutUint64(frame[4:], uint64(size))
	w.crc = 0
	w.put(frame[:])
	start := w.n
	body()
	if w.err == nil && w.n-start != int64(size) {
		w.err = fmt.Errorf("core: snapshot section %s: wrote %d payload bytes, framed %d", tag[:], w.n-start, size)
	}
	w.put(binary.LittleEndian.AppendUint32(nil, w.crc))
}

// frame writes a section whose payload is already in memory.
func (w *snapshotWriter) frame(tag [4]byte, payload []byte) {
	w.section(tag, len(payload), func() { w.put(payload) })
}

// appendHeader encodes the HEAD payload.
func appendHeader(b []byte, sc feature.Schema, length, shards, count int) []byte {
	var space, moments uint8
	if sc.Space == feature.Polar {
		space = 1
	}
	if sc.Moments {
		moments = 1
	}
	b = append(b, space)
	b = binary.LittleEndian.AppendUint16(b, uint16(sc.K))
	b = append(b, moments)
	b = binary.LittleEndian.AppendUint32(b, uint32(length))
	b = binary.LittleEndian.AppendUint16(b, uint16(shards))
	return binary.LittleEndian.AppendUint32(b, uint32(count))
}

// appendSlab encodes the SLAB payload: each shard's packed tree in the
// rtree binary format, leaf IDs remapped to dense global record positions
// (the IDs a loader assigns).
func appendSlab(b []byte, shards []*shard, remap func(int64) (int64, bool)) ([]byte, error) {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(shards)))
	for _, sh := range shards {
		at := len(b)
		buf := bytes.NewBuffer(append(b, 0, 0, 0, 0))
		if err := sh.idx.EncodeTree(buf, remap); err != nil {
			return nil, err
		}
		b = buf.Bytes()
		binary.LittleEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	}
	return b, nil
}

// densePositions maps each snapshot ID to its dense record position — the
// ID the loader will assign — for slab leaf-ID remapping.
func densePositions(ids []int64) func(int64) (int64, bool) {
	pos := make(map[int64]int64, len(ids))
	for i, id := range ids {
		pos[id] = int64(i)
	}
	return func(id int64) (int64, bool) {
		p, ok := pos[id]
		return p, ok
	}
}

// WriteTo serializes the store's contents as a TSQ4 snapshot: the shard
// count, every series in global insertion order — so a snapshot round-trip
// reproduces the exact ID assignment — plus the DERV and SLAB derived
// sections (one packed tree per shard), so a reload validates and adopts the
// packed indexes instead of rebuilding them. All shard locks are held in
// shared mode for the duration: the snapshot is a consistent cut of the
// whole store. It returns the number of bytes written.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	entries, err := s.pinAll()
	if err != nil {
		return 0, err
	}
	defer s.runlockAll()

	dims, h := s.Schema().Dims(), halfLen(s.length)
	names := make([]string, len(entries))
	ids := make([]int64, len(entries))
	seriesSize := 0
	for i, e := range entries {
		names[i], ids[i] = e.sh.name(e.id), e.id
		if len(names[i]) > math.MaxUint16 {
			return 0, fmt.Errorf("core: series name of %d bytes exceeds snapshot limit", len(names[i]))
		}
		seriesSize += 2 + len(names[i]) + 8*s.length
	}
	slab, err := appendSlab(nil, s.shards, densePositions(ids))
	if err != nil {
		return 0, err
	}

	sw := &snapshotWriter{bw: bufio.NewWriter(w)}
	sw.put(snapshotMagic[:])
	sw.frame(headTag, appendHeader(nil, s.Schema(), s.length, len(s.shards), len(entries)))
	sw.section(seriesTag, seriesSize, func() {
		var rec []byte // a series record is its time relation record, as stored
		for i, e := range entries {
			var err error
			if rec, err = e.sh.timeRel.AppendRecord(rec[:0], e.id); err != nil {
				sw.fail(err)
				return
			}
			sw.u16(uint16(len(names[i])))
			sw.put([]byte(names[i]))
			sw.put(rec)
		}
	})
	sw.section(derivedTag, len(entries)*(8*dims+16*h), func() {
		var spec []complex128
		for _, e := range entries {
			var err error
			if spec, err = e.sh.spectrum(spec, e.id); err != nil {
				sw.fail(err)
				return
			}
			sw.floats(e.sh.rec(e.id).point)
			sw.complexes(spec)
		}
	})
	sw.frame(slabTag, slab)
	if sw.err == nil {
		sw.err = sw.bw.Flush()
	}
	return sw.n, sw.err
}

// ---- reading ----

// decoder reads little-endian values off a snapshot stream. Its error is
// sticky: after the first failure every read returns zeros.
type decoder struct {
	r   io.Reader
	err error
	b   [8]byte
}

func (d *decoder) full(p []byte) {
	if d.err == nil {
		if _, err := io.ReadFull(d.r, p); err != nil {
			d.err = err
		}
	}
	if d.err != nil {
		clear(p)
	}
}

func (d *decoder) u8() uint8   { d.full(d.b[:1]); return d.b[0] }
func (d *decoder) u16() uint16 { d.full(d.b[:2]); return binary.LittleEndian.Uint16(d.b[:]) }
func (d *decoder) u32() uint32 { d.full(d.b[:4]); return binary.LittleEndian.Uint32(d.b[:]) }

// readChunk is how far ahead of the bytes that have arrived a read may
// allocate.
const readChunk = 1 << 20

// appendN appends the next n bytes of the stream to dst, growing dst as they
// arrive: never by more than max(readChunk, len(dst)) at a time, so what a
// read allocates follows the bytes the stream holds, not the n a header
// promised.
func (d *decoder) appendN(dst []byte, n int) []byte {
	for n > 0 && d.err == nil {
		if len(dst) == cap(dst) {
			dst = append(dst, make([]byte, min(n, max(readChunk, len(dst))))...)[:len(dst)]
		}
		k := min(n, cap(dst)-len(dst))
		d.full(dst[len(dst) : len(dst)+k])
		dst, n = dst[:len(dst)+k], n-k
	}
	return dst
}

// readHeader decodes the header fields and refuses, before anything is
// sized by them, a length or K no store can hold.
func readHeader(d *decoder) (snapshotHeader, error) {
	space, k, moments := d.u8(), d.u16(), d.u8()
	length, shards, count := d.u32(), d.u16(), d.u32()
	if d.err != nil {
		return snapshotHeader{}, d.err
	}
	switch {
	case space > 1:
		return snapshotHeader{}, fmt.Errorf("unknown space %d", space)
	case moments > 1:
		return snapshotHeader{}, fmt.Errorf("moments flag %d is not 0 or 1", moments)
	case shards == 0:
		return snapshotHeader{}, errors.New("zero shards")
	case length < 4:
		return snapshotHeader{}, fmt.Errorf("series length %d too short", length)
	case k < 1 || uint32(k) >= length:
		return snapshotHeader{}, fmt.Errorf("K = %d does not fit series of length %d", k, length)
	}
	h := snapshotHeader{
		schema: feature.Schema{Space: feature.Rect, K: int(k), Moments: moments == 1},
		length: int(length),
		shards: int(shards),
		count:  int(count),
	}
	if space == 1 {
		h.schema.Space = feature.Polar
	}
	return h, nil
}

// readSlab decodes the packed trees. Each must fill exactly the bytes its
// length prefix claims.
func readSlab(d *decoder) ([]*rtree.Tree, error) {
	n := d.u16()
	if d.err != nil {
		return nil, fmt.Errorf("reading the tree count: %w", d.err)
	}
	trees := make([]*rtree.Tree, n)
	for i := range trees {
		lr := &io.LimitedReader{R: d.r, N: int64(d.u32())}
		if d.err != nil {
			return nil, fmt.Errorf("reading tree %d length: %w", i, d.err)
		}
		t, err := rtree.DecodeBinary(lr)
		if err != nil {
			return nil, fmt.Errorf("decoding tree %d: %w", i, err)
		}
		if lr.N != 0 {
			return nil, fmt.Errorf("tree %d leaves %d of its bytes unread", i, lr.N)
		}
		trees[i] = t
	}
	return trees, nil
}

// loader builds a store while a snapshot is read. Each series record goes
// to its shard's time relation as it arrives, and each DERV spectrum to its
// shard's frequency relation; what stays in memory is the names and the
// feature points. A shard is built when its first record arrives. finish
// turns the parts into a store once every section has been read and
// checked; a load that fails before then closes every shard it built
// (closeShards), removing their files and directories.
type loader struct {
	opts Options
	want int // the caller's shard count; 0 takes the snapshot's
	h    snapshotHeader
	// shards is the store's partition, a shard nil until a record hashes to
	// it; names are the series in record (ID) order; trees is SLAB.
	shards []*shard
	names  []string
	trees  []*rtree.Tree
	// scratch holds a record on its way into a disk relation's page run
	// (or one too large to carve), and name and point are one record's name
	// and feature point as read.
	scratch, name, point []byte
}

// sectionBody is one section a snapshot may carry and the decoder of its
// payload.
type sectionBody struct {
	tag      [4]byte
	required bool
	read     func(d *decoder) error
}

// bodies lists the sections in file order, each decoding into the load.
func (l *loader) bodies() []sectionBody {
	return []sectionBody{
		{headTag, true, l.head},
		{seriesTag, true, l.series},
		{derivedTag, true, l.derived},
		{slabTag, true, func(d *decoder) (err error) {
			l.trees, err = readSlab(d)
			return err
		}},
		{historyTag, false, discard},
		{costsTag, false, discard},
	}
}

// discard reads a retired section's payload through, so that its size and
// checksum are checked, and keeps none of it.
func discard(d *decoder) error {
	_, err := io.Copy(io.Discard, d.r)
	return err
}

// head decodes the header and settles the shard count: the caller's, else
// the recorded one up to one shard per series (shards the file only
// promises cost a pointer each until a record arrives).
func (l *loader) head(d *decoder) (err error) {
	if l.h, err = readHeader(d); err != nil {
		return err
	}
	l.opts.Schema = l.h.schema
	n := l.want
	if n == 0 {
		n = min(l.h.shards, max(1, l.h.count))
	}
	l.shards = make([]*shard, n)
	return nil
}

// shard returns shard si, building it — and opening its time relation's
// page run — when its first record arrives.
func (l *loader) shard(si int) (*shard, error) {
	if sh := l.shards[si]; sh != nil {
		return sh, nil
	}
	sh, err := newShard(l.h.length, shardOptions(l.opts, si))
	if err != nil {
		return nil, err
	}
	sh.timeRel.StartRun(nil)
	l.shards[si] = sh
	return sh, nil
}

// store reads the next size-byte record off d and stores it in rel under
// id: straight into a memory relation's own page memory (Carve), where it
// is adopted in place, or through scratch, which a disk relation copies
// into its page run. A record larger than readChunk goes through scratch
// into either, scratch growing as its bytes arrive: no length a file states
// sizes memory ahead of them. A failed read leaves its error in d.err.
func (l *loader) store(d *decoder, rel *relation.Relation, id int64, size int) error {
	if rel.DiskBacked() || size > readChunk {
		if l.scratch = d.appendN(l.scratch[:0], size); d.err != nil {
			return d.err
		}
		return rel.InsertRaw(id, l.scratch)
	}
	rec, err := rel.Carve(size)
	if err != nil {
		return err
	}
	if d.full(rec); d.err != nil {
		return d.err
	}
	return rel.InsertOwned(id, rec)
}

// series routes each series record to its shard's time relation. When all
// are in, each time relation's run ends and hands its memory to the
// frequency relation's, and the per-record tables of what follows are sized
// to the records that arrived.
func (l *loader) series(d *decoder) error {
	size := 8 * l.h.length
	for i := 0; i < l.h.count; i++ {
		l.name = d.appendN(l.name[:0], int(d.u16()))
		if d.err != nil {
			return fmt.Errorf("reading series %d: %w", i, d.err)
		}
		name := string(l.name)
		sh, err := l.shard(shardOf(name, len(l.shards)))
		if err != nil {
			return err
		}
		if err := l.store(d, sh.timeRel, int64(i), size); d.err != nil {
			return fmt.Errorf("reading series %d: %w", i, d.err)
		} else if err != nil {
			return err
		}
		l.names = append(l.names, name)
	}
	for _, sh := range l.shards {
		if sh == nil {
			continue
		}
		buf, err := sh.timeRel.EndRun()
		if err != nil {
			return err
		}
		sh.freqRel.StartRun(buf)
		n := sh.timeRel.Len()
		sh.freqRel.Reserve(n, 16*halfLen(l.h.length))
		sh.recs = slices.Grow(sh.recs, n)
		sh.ids = slices.Grow(sh.ids, n)
		sh.byName = make(map[string]int64, n)
	}
	return nil
}

// derived routes each DERV record to its series' shard: the spectrum to the
// frequency relation, the feature point to the record directory.
func (l *loader) derived(d *decoder) error {
	dims, size := l.h.schema.Dims(), 16*halfLen(l.h.length)
	coords := make([]float64, len(l.names)*dims)
	for i, name := range l.names {
		sh := l.shards[shardOf(name, len(l.shards))]
		l.point = d.appendN(l.point[:0], 8*dims)
		p := geom.Point(coords[i*dims : (i+1)*dims : (i+1)*dims])
		for j := range p {
			p[j] = math.Float64frombits(binary.LittleEndian.Uint64(l.point[8*j:]))
		}
		if err := l.store(d, sh.freqRel, int64(i), size); d.err != nil {
			return fmt.Errorf("reading derived record %d: %w", i, d.err)
		} else if err != nil {
			return err
		}
		if err := enter(sh, int64(i), name, p); err != nil {
			return err
		}
	}
	return nil
}

// enter files a series whose records are stored under id in the shard's
// record directory, refusing a name no store holds: empty, or stored twice
// (both copies hash to this shard).
func enter(sh *shard, id int64, name string, p geom.Point) error {
	if name == "" {
		return fmt.Errorf("core: empty series name at position %d", id)
	}
	if _, dup := sh.byName[name]; dup {
		return fmt.Errorf("core: %w %q", ErrDuplicateSeries, name)
	}
	sh.addRecord(id, name, p)
	return nil
}

// finish turns a load whose every section has been read and checked into a
// store: the shards no series hashed to are built, every page run is
// written, each shard adopts its packed tree (or STR-packs its points), and
// the catalog takes the names.
func (l *loader) finish() (*Store, error) {
	for si, sh := range l.shards {
		if sh != nil {
			continue
		}
		sh, err := newShard(l.h.length, shardOptions(l.opts, si))
		if err != nil {
			return nil, err
		}
		l.shards[si] = sh
	}
	for _, sh := range l.shards {
		if _, err := sh.freqRel.EndRun(); err != nil {
			return nil, err
		}
	}
	// The packed trees partition records exactly as the writing store did;
	// they are adoptable only when this load partitions the same way.
	adopt := len(l.trees) == len(l.shards)
	errs := make([]error, len(l.shards))
	each(len(l.shards), func(si int) {
		sh := l.shards[si]
		if adopt {
			errs[si] = sh.adoptTree(l.trees[si], sh.ids)
			return
		}
		points := make([]geom.Point, len(sh.recs))
		for i := range sh.recs {
			points[i] = sh.recs[i].point
		}
		if errs[si] = sh.idx.BulkLoad(points, sh.ids); errs[si] == nil {
			sh.idx.FillPrefix(sh.leafPrefix)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	s := newStore(l.h.length, l.shards)
	s.catalog(l.names)
	return s, nil
}

// checksummed is one TSQ4 section's payload as a reader: it stops at the
// framed size and folds every byte it hands out into the section checksum.
type checksummed struct {
	lr  io.LimitedReader
	crc uint32
}

func (c *checksummed) Read(p []byte) (int, error) {
	n, err := c.lr.Read(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	return n, err
}

// readSections reads the sections following the magic into the load. Every
// section's payload is decoded, found to fill exactly its framed size and
// checked against its checksum before the next is read.
func readSections(br *bufio.Reader, l *loader) error {
	bodies := l.bodies()
	next := 0
	for {
		var frame [12]byte
		if _, err := io.ReadFull(br, frame[:]); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("core: reading a snapshot section frame: %w", err)
		}
		tag := [4]byte(frame[:4])
		i := next
		for i < len(bodies) && bodies[i].tag != tag {
			if bodies[i].required {
				return fmt.Errorf("core: snapshot has no %s section (found %q)", bodies[i].tag[:], tag[:])
			}
			i++
		}
		if i == len(bodies) {
			return fmt.Errorf("core: snapshot section %q is unknown or out of order", tag[:])
		}
		size := binary.LittleEndian.Uint64(frame[4:])
		if size > math.MaxInt64 {
			return fmt.Errorf("core: snapshot section %s claims %d bytes", tag[:], size)
		}
		sec := &checksummed{lr: io.LimitedReader{R: br, N: int64(size)}, crc: crc32.Update(0, castagnoli, frame[:])}
		err := bodies[i].read(&decoder{r: sec})
		if err == nil && sec.lr.N != 0 {
			err = fmt.Errorf("%d payload bytes left unread", sec.lr.N)
		}
		var sum [4]byte
		if err == nil {
			if _, err = io.ReadFull(br, sum[:]); err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
		}
		if stored := binary.LittleEndian.Uint32(sum[:]); err == nil && stored != sec.crc {
			err = fmt.Errorf("checksum mismatch (stored %08x, computed %08x)", stored, sec.crc)
		}
		if err != nil {
			return fmt.Errorf("core: snapshot section %s: %w", tag[:], err)
		}
		next = i + 1
	}
	for _, b := range bodies[next:] {
		if b.required {
			return fmt.Errorf("core: snapshot has no %s section", b.tag[:])
		}
	}
	return nil
}

// ReadEngine deserializes a snapshot into a fresh store. shards selects the
// partitioning of the loaded store: 0 honors the count recorded in the
// snapshot (up to one shard per stored series), 1 <= n <= MaxShards forces
// an n-way store — re-sharding is always possible because partition
// assignment is a pure hash of the series name. The opts' Schema is ignored
// (the snapshot records its own) but storage options apply to every shard.
//
// The records stream into the shards' relations as they are read — a
// disk-backed load holds none of them in memory and writes its pages in
// runs — and the index loads by one of two paths: at the slab's shard count
// each packed tree is validated and adopted as-is (no extraction, no FFT, no
// STR sort — cold start is O(bytes read)); at any other count the DERV
// points and spectra are adopted and only the trees are re-packed. A load that
// fails leaves nothing behind: no store, no scratch file, no shard
// directory.
func ReadEngine(r io.Reader, opts Options, shards int) (Engine, error) {
	s, err := readStore(r, opts, shards)
	if err != nil {
		return nil, err
	}
	return s.Engine(), nil
}

func readStore(r io.Reader, opts Options, shards int) (*Store, error) {
	if shards < 0 || shards > MaxShards {
		return nil, fmt.Errorf("core: shard count %d is not in [0, %d]", shards, MaxShards)
	}
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading snapshot header: %w", err)
	}
	l := &loader{opts: opts, want: shards}
	var err error
	switch magic {
	case snapshotMagic:
		err = readSections(br, l)
	case [4]byte{'T', 'S', 'Q', '3'}:
		err = errors.New("core: TSQ3 snapshots are no longer read (this build reads TSQ4): load the file with a build up to commit 5f712f0 and save it again")
	case [4]byte{'T', 'S', 'Q', '1'}, [4]byte{'T', 'S', 'Q', '2'}:
		err = fmt.Errorf("core: %s snapshots are no longer supported (this build reads TSQ4)", magic[:])
	default:
		err = fmt.Errorf("core: not a tsq snapshot (magic %q)", magic[:])
	}
	var s *Store
	if err == nil {
		s, err = l.finish()
	}
	if err != nil {
		closeShards(l.shards)
		return nil, err
	}
	return s, nil
}

// ReadFrom deserializes a snapshot into a fresh one-shard store, regardless
// of the shard count the snapshot records. The opts' Schema is ignored — the
// snapshot records its own — but storage options (page size, R-tree
// capacity) apply.
func ReadFrom(r io.Reader, opts Options) (*DB, error) {
	s, err := readStore(r, opts, 1)
	if err != nil {
		return nil, err
	}
	return &DB{s}, nil
}
