package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/feature"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/rtree"
)

// The snapshot format, "TSQ3": a small self-describing binary layout
// (little endian).
//
//	magic   [4]byte  "TSQ3"
//	space   uint8    0 = rect, 1 = polar
//	k       uint16
//	moments uint8    0/1
//	length  uint32   series length
//	shards  uint16   shard count the store ran with (>= 1)
//	count   uint32   number of series
//	repeat count times:
//	  nameLen uint16, name [nameLen]byte
//	  values  [length]float64
//
// Shard *assignment* is derived — a pure hash of the series name — so a
// snapshot can be loaded at any shard count; the recorded count is only the
// default when the loader does not override it. Two derived-data sections
// follow the series records, before the planner trailers, making cold start
// O(bytes read) instead of O(n log n) recomputation:
//
//	magic   [4]byte "DERV"
//	repeat count times, in record order:
//	  point [dims]float64      indexed feature point
//	  spec  [2*length]float64  energy-ordered spectrum, (re, im) pairs
//
//	magic   [4]byte "SLAB"
//	shards  uint16             packed trees that follow, one per shard
//	repeat shards times:
//	  byteLen uint32
//	  tree    [byteLen]byte    rtree binary encoding (rtree.DecodeBinary)
//
// Tree leaf IDs are remapped at write time to dense record positions —
// exactly the IDs a loader assigns — so a load whose effective shard
// count matches the slab count validates and adopts each packed tree
// as-is (no feature extraction, no FFT, no STR sort). At any other shard
// count the loader still skips extraction and the FFT using DERV and only
// re-packs the trees. Readers accept snapshots without these sections by
// falling back to full rebuild.
//
// The series-only TSQ1 and TSQ2 formats (written by this repository's first
// nine PRs, never by a release) are retired: their magic is recognised and
// refused by name.

var (
	snapshotMagic = [4]byte{'T', 'S', 'Q', '3'}

	// derivedMagic and slabMagic introduce the derived-data sections.
	derivedMagic = [4]byte{'D', 'E', 'R', 'V'}
	slabMagic    = [4]byte{'S', 'L', 'A', 'B'}

	// historyMagic introduces the optional plan-history trailer appended
	// after the derived sections:
	//
	//	magic [4]byte "PLNH"
	//	seq   int64   history sequence counter
	//	count uint32  retained records, oldest first
	//	repeat count times: the plan.Record fields in order (strings as
	//	  uint16 length + bytes, ints as int64, bools as uint8)
	//
	// A snapshot that ends after the series records simply has no trailer
	// (the pre-trailer format); readers accept both.
	historyMagic = [4]byte{'P', 'L', 'N', 'H'}

	// costsMagic introduces the optional cost-calibration trailer after
	// the history trailer:
	//
	//	magic [4]byte "CCAL"
	//	scanUnit, nodeUnit, joinScanUnit, joinNodeUnit, joinProbeUnit
	//	  — five float64s, the plan.Costs fields in order
	//
	// It records the cost-model constants the store priced plans with, so
	// a reloaded snapshot keeps the same index-vs-scan break-even points
	// it had when written (planner continuity across restarts). Older
	// snapshots end after the history trailer; readers then calibrate
	// fresh.
	costsMagic = [4]byte{'C', 'C', 'A', 'L'}
)

// snapshotHeader is the decoded fixed-size prefix.
type snapshotHeader struct {
	schema feature.Schema
	length int
	shards int
	count  int
}

// countingWriter tracks bytes through binary.Write.
type snapshotWriter struct {
	bw *bufio.Writer
	n  int64
}

func (w *snapshotWriter) write(data interface{}) error {
	if err := binary.Write(w.bw, binary.LittleEndian, data); err != nil {
		return err
	}
	w.n += int64(binary.Size(data))
	return nil
}

// writeFloats is the bulk-float fast path: snapshots are mostly float64
// runs (series values, spectra, feature points), and binary.Write's
// reflection costs more than the I/O for them. Encoding through a chunk
// buffer runs an order of magnitude faster.
func (w *snapshotWriter) writeFloats(vals []float64) error {
	var chunk [512]byte
	for len(vals) > 0 {
		n := len(chunk) / 8
		if n > len(vals) {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(chunk[8*i:], math.Float64bits(vals[i]))
		}
		if _, err := w.bw.Write(chunk[:8*n]); err != nil {
			return err
		}
		w.n += int64(8 * n)
		vals = vals[n:]
	}
	return nil
}

// readFloats is the decode half of the fast path: one ReadFull into a
// reused scratch buffer, then manual bit conversion. Cold-start latency
// is dominated by this loop, so it must not pay reflection per element.
func readFloats(br *bufio.Reader, dst []float64, scratch *[]byte) error {
	need := 8 * len(dst)
	if cap(*scratch) < need {
		*scratch = make([]byte, need)
	}
	buf := (*scratch)[:need]
	if _, err := io.ReadFull(br, buf); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return nil
}

// writeHeader emits the fixed-size prefix.
func (w *snapshotWriter) writeHeader(sc feature.Schema, length, shards, count int) error {
	if err := w.write(snapshotMagic); err != nil {
		return err
	}
	var space uint8
	if sc.Space == feature.Polar {
		space = 1
	}
	if err := w.write(space); err != nil {
		return err
	}
	if err := w.write(uint16(sc.K)); err != nil {
		return err
	}
	var moments uint8
	if sc.Moments {
		moments = 1
	}
	if err := w.write(moments); err != nil {
		return err
	}
	if err := w.write(uint32(length)); err != nil {
		return err
	}
	if err := w.write(uint16(shards)); err != nil {
		return err
	}
	return w.write(uint32(count))
}

// writeDerived emits the DERV section: every record's indexed feature
// point and energy-ordered spectrum, in record order. get(i) supplies the
// i-th record's pair.
func (w *snapshotWriter) writeDerived(dims, count int, get func(i int) (geom.Point, []complex128, error)) error {
	if err := w.write(derivedMagic); err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		p, spec, err := get(i)
		if err != nil {
			return err
		}
		if len(p) != dims {
			return fmt.Errorf("core: record %d feature point has %d dims, schema has %d", i, len(p), dims)
		}
		if err := w.writeFloats(p); err != nil {
			return err
		}
		if err := w.writeFloats(relation.EncodeComplex(spec)); err != nil {
			return err
		}
	}
	return nil
}

// writeSlabs emits the SLAB section: each shard's packed tree in the
// rtree binary format, leaf IDs already remapped to dense global record
// positions (the IDs a loader assigns).
func (w *snapshotWriter) writeSlabs(trees []*index.KIndex, remap func(int64) (int64, bool)) error {
	if err := w.write(slabMagic); err != nil {
		return err
	}
	if err := w.write(uint16(len(trees))); err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, t := range trees {
		buf.Reset()
		if err := t.EncodeTree(&buf, remap); err != nil {
			return err
		}
		if err := w.write(uint32(buf.Len())); err != nil {
			return err
		}
		if err := w.write(buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
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

// writeSeries emits one name/values record.
func (w *snapshotWriter) writeSeries(name string, vals []float64) error {
	if len(name) > math.MaxUint16 {
		return fmt.Errorf("core: series name of %d bytes exceeds snapshot limit", len(name))
	}
	if err := w.write(uint16(len(name))); err != nil {
		return err
	}
	if err := w.write([]byte(name)); err != nil {
		return err
	}
	return w.writeFloats(vals)
}

// writeString emits a length-prefixed string for the history trailer.
func (w *snapshotWriter) writeString(s string) error {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	if err := w.write(uint16(len(s))); err != nil {
		return err
	}
	return w.write([]byte(s))
}

// writeHistory appends the plan-history trailer, so planner drift
// diagnostics survive a snapshot round-trip.
func (w *snapshotWriter) writeHistory(h *plan.History) error {
	seq, recs := h.Export()
	if err := w.write(historyMagic); err != nil {
		return err
	}
	if err := w.write(seq); err != nil {
		return err
	}
	if err := w.write(uint32(len(recs))); err != nil {
		return err
	}
	for _, r := range recs {
		for _, s := range []string{r.Kind, r.Strategy, r.Method, r.Reason} {
			if err := w.writeString(s); err != nil {
				return err
			}
		}
		var forced uint8
		if r.Forced {
			forced = 1
		}
		for _, v := range []interface{}{
			r.Seq, forced, int64(r.Series), int64(r.Shards),
			r.EstCandidates, r.EstCost,
			int64(r.ActualCandidates), int64(r.ActualNodeAccesses),
			int64(r.Results), r.ElapsedUS,
		} {
			if err := w.write(v); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeCosts appends the cost-calibration trailer.
func (w *snapshotWriter) writeCosts(c plan.Costs) error {
	if err := w.write(costsMagic); err != nil {
		return err
	}
	return w.write([]float64{
		c.ScanUnit, c.NodeUnit, c.JoinScanUnit, c.JoinNodeUnit, c.JoinProbeUnit,
	})
}

// WriteTo serializes the store's contents: the shard count, every series in
// global insertion order — so a snapshot round-trip reproduces the exact ID
// assignment — plus the DERV and SLAB derived sections (one packed tree per
// shard), so a reload validates and adopts the packed indexes instead of
// rebuilding them. All shard locks are held in shared mode for the
// duration: the snapshot is a consistent cut of the whole store. It returns
// the number of bytes written.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	entries := s.pinAll()
	defer s.runlockAll()

	sw := &snapshotWriter{bw: bufio.NewWriter(w)}
	if err := sw.writeHeader(s.Schema(), s.length, len(s.shards), len(entries)); err != nil {
		return sw.n, err
	}
	ids := make([]int64, len(entries))
	for i, e := range entries {
		ids[i] = e.id
		vals, err := e.sh.timeRel.Get(e.id)
		if err != nil {
			return sw.n, err
		}
		if err := sw.writeSeries(e.sh.name(e.id), vals); err != nil {
			return sw.n, err
		}
	}
	err := sw.writeDerived(s.Schema().Dims(), len(entries), func(i int) (geom.Point, []complex128, error) {
		e := entries[i]
		spec, err := e.sh.spectrum(e.id)
		return e.sh.rec(e.id).point, spec, err
	})
	if err != nil {
		return sw.n, err
	}
	trees := make([]*index.KIndex, len(s.shards))
	for si, sh := range s.shards {
		trees[si] = sh.idx
	}
	if err := sw.writeSlabs(trees, densePositions(ids)); err != nil {
		return sw.n, err
	}
	if err := sw.writeHistory(s.history); err != nil {
		return sw.n, err
	}
	if err := sw.writeCosts(s.tracker.Costs()); err != nil {
		return sw.n, err
	}
	return sw.n, sw.bw.Flush()
}

// readHeader decodes the fixed-size prefix.
func readHeader(br *bufio.Reader) (snapshotHeader, error) {
	var h snapshotHeader
	read := func(data interface{}) error {
		return binary.Read(br, binary.LittleEndian, data)
	}
	var magic [4]byte
	if err := read(&magic); err != nil {
		return h, fmt.Errorf("core: reading snapshot header: %w", err)
	}
	switch magic {
	case snapshotMagic:
	case [4]byte{'T', 'S', 'Q', '1'}, [4]byte{'T', 'S', 'Q', '2'}:
		return h, fmt.Errorf("core: %s snapshots are no longer supported (this build reads TSQ3)", magic[:])
	default:
		return h, fmt.Errorf("core: not a tsq snapshot (magic %q)", magic[:])
	}
	var space, moments uint8
	var k, shards uint16
	var length, count uint32
	if err := read(&space); err != nil {
		return h, err
	}
	if err := read(&k); err != nil {
		return h, err
	}
	if err := read(&moments); err != nil {
		return h, err
	}
	if err := read(&length); err != nil {
		return h, err
	}
	if err := read(&shards); err != nil {
		return h, err
	}
	if shards == 0 {
		return h, fmt.Errorf("core: snapshot records zero shards")
	}
	if err := read(&count); err != nil {
		return h, err
	}
	if space > 1 {
		return h, fmt.Errorf("core: snapshot has unknown space %d", space)
	}
	h.schema = feature.Schema{Space: feature.Rect, K: int(k), Moments: moments == 1}
	if space == 1 {
		h.schema.Space = feature.Polar
	}
	h.length = int(length)
	h.shards = int(shards)
	h.count = int(count)
	return h, nil
}

// readSeries decodes the record section following a header. It returns
// each record's value bytes exactly as stored (one backing array, sliced
// per record) and skips the float decode entirely: the snapshot layout is
// the page-file record layout, so the cold-start load hands those bytes to
// Relation.InsertOwned, and a load that does need floats (a rebuild)
// recovers them with decodeRawSeries.
func readSeries(br *bufio.Reader, h snapshotHeader) ([]string, [][]byte, error) {
	names := make([]string, h.count)
	raw := make([][]byte, h.count)
	rawBuf := make([]byte, h.count*8*h.length)
	var lenBuf [2]byte
	for i := 0; i < h.count; i++ {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return nil, nil, fmt.Errorf("core: reading series %d: %w", i, err)
		}
		nameBuf := make([]byte, binary.LittleEndian.Uint16(lenBuf[:]))
		if _, err := io.ReadFull(br, nameBuf); err != nil {
			return nil, nil, fmt.Errorf("core: reading series %d name: %w", i, err)
		}
		names[i] = string(nameBuf)
		raw[i] = rawBuf[i*8*h.length : (i+1)*8*h.length]
		if _, err := io.ReadFull(br, raw[i]); err != nil {
			return nil, nil, fmt.Errorf("core: reading series %q values: %w", names[i], err)
		}
	}
	return names, raw, nil
}

// decodeRawSeries converts raw series records kept by readSeries back to
// float values, for loads that must rebuild derived state from them.
func decodeRawSeries(raw [][]byte, length int) [][]float64 {
	values := make([][]float64, len(raw))
	for i, rec := range raw {
		vals := make([]float64, length)
		for j := range vals {
			vals[j] = math.Float64frombits(binary.LittleEndian.Uint64(rec[8*j:]))
		}
		values[i] = vals
	}
	return values
}

// derivedSections carries a snapshot's precomputed derived data.
// Fields are nil when the corresponding section is absent. Spectra stay
// in their on-disk encoding — little-endian float64 bytes of the
// energy-ordered interleaved (re, im) record, identical to the page-file
// record layout — so the load path moves them into pages with a copy
// rather than a decode/re-encode round trip.
type derivedSections struct {
	points []geom.Point
	specs  [][]byte
	trees  []*rtree.Tree
}

// peekMagic reports whether the next four bytes equal magic without
// consuming them. A short stream (EOF inside the peek) reports false.
func peekMagic(br *bufio.Reader, magic [4]byte) bool {
	b, err := br.Peek(4)
	if err != nil {
		return false
	}
	return [4]byte{b[0], b[1], b[2], b[3]} == magic
}

// readDerivedSections decodes the optional DERV and SLAB sections of a
// snapshot. Either may be absent (the stream then continues with the
// planner trailers); section order is fixed.
func readDerivedSections(br *bufio.Reader, h snapshotHeader) (derivedSections, error) {
	var der derivedSections
	read := func(data interface{}) error {
		return binary.Read(br, binary.LittleEndian, data)
	}
	if peekMagic(br, derivedMagic) {
		br.Discard(4)
		dims := h.schema.Dims()
		recLen := 2 * 8 * h.length
		der.points = make([]geom.Point, h.count)
		der.specs = make([][]byte, h.count)
		specBuf := make([]byte, h.count*recLen)
		var scratch []byte
		for i := 0; i < h.count; i++ {
			p := make([]float64, dims)
			if err := readFloats(br, p, &scratch); err != nil {
				return der, fmt.Errorf("core: reading derived point %d: %w", i, err)
			}
			rec := specBuf[i*recLen : (i+1)*recLen]
			if _, err := io.ReadFull(br, rec); err != nil {
				return der, fmt.Errorf("core: reading derived spectrum %d: %w", i, err)
			}
			der.points[i] = p
			der.specs[i] = rec
		}
	}
	if peekMagic(br, slabMagic) {
		br.Discard(4)
		var nTrees uint16
		if err := read(&nTrees); err != nil {
			return der, fmt.Errorf("core: reading slab count: %w", err)
		}
		der.trees = make([]*rtree.Tree, nTrees)
		for i := range der.trees {
			var byteLen uint32
			if err := read(&byteLen); err != nil {
				return der, fmt.Errorf("core: reading slab %d length: %w", i, err)
			}
			t, err := rtree.DecodeBinary(io.LimitReader(br, int64(byteLen)))
			if err != nil {
				return der, fmt.Errorf("core: decoding packed tree %d: %w", i, err)
			}
			der.trees[i] = t
		}
	}
	return der, nil
}

// readString decodes a length-prefixed trailer string.
func readString(br *bufio.Reader) (string, error) {
	var n uint16
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// readHistory decodes the optional plan-history trailer. A clean EOF
// right after the series records means a pre-trailer snapshot: ok is
// false and the error nil.
func readHistory(br *bufio.Reader) (seq int64, recs []plan.Record, ok bool, err error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		if err == io.EOF {
			return 0, nil, false, nil
		}
		return 0, nil, false, fmt.Errorf("core: reading history trailer: %w", err)
	}
	if magic != historyMagic {
		return 0, nil, false, fmt.Errorf("core: unexpected snapshot trailer (magic %q)", magic[:])
	}
	read := func(data interface{}) error {
		return binary.Read(br, binary.LittleEndian, data)
	}
	var count uint32
	if err := read(&seq); err != nil {
		return 0, nil, false, fmt.Errorf("core: reading history trailer: %w", err)
	}
	if err := read(&count); err != nil {
		return 0, nil, false, fmt.Errorf("core: reading history trailer: %w", err)
	}
	recs = make([]plan.Record, count)
	for i := range recs {
		r := &recs[i]
		for _, dst := range []*string{&r.Kind, &r.Strategy, &r.Method, &r.Reason} {
			s, err := readString(br)
			if err != nil {
				return 0, nil, false, fmt.Errorf("core: reading history record %d: %w", i, err)
			}
			*dst = s
		}
		var forced uint8
		var series, shards, actualCand, actualNodes, results int64
		for _, dst := range []interface{}{
			&r.Seq, &forced, &series, &shards,
			&r.EstCandidates, &r.EstCost,
			&actualCand, &actualNodes, &results, &r.ElapsedUS,
		} {
			if err := read(dst); err != nil {
				return 0, nil, false, fmt.Errorf("core: reading history record %d: %w", i, err)
			}
		}
		r.Forced = forced == 1
		r.Series = int(series)
		r.Shards = int(shards)
		r.ActualCandidates = int(actualCand)
		r.ActualNodeAccesses = int(actualNodes)
		r.Results = int(results)
	}
	return seq, recs, true, nil
}

// readCosts decodes the optional cost-calibration trailer. A clean EOF
// means a pre-CCAL snapshot: ok is false and the error nil.
func readCosts(br *bufio.Reader) (c plan.Costs, ok bool, err error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		if err == io.EOF {
			return c, false, nil
		}
		return c, false, fmt.Errorf("core: reading costs trailer: %w", err)
	}
	if magic != costsMagic {
		return c, false, fmt.Errorf("core: unexpected snapshot trailer (magic %q)", magic[:])
	}
	var vals [5]float64
	if err := binary.Read(br, binary.LittleEndian, vals[:]); err != nil {
		return c, false, fmt.Errorf("core: reading costs trailer: %w", err)
	}
	c = plan.Costs{
		ScanUnit:      vals[0],
		NodeUnit:      vals[1],
		JoinScanUnit:  vals[2],
		JoinNodeUnit:  vals[3],
		JoinProbeUnit: vals[4],
	}
	for _, v := range vals {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return plan.Costs{}, false, fmt.Errorf("core: costs trailer carries invalid constant %g", v)
		}
	}
	return c, true, nil
}

// ReadEngine deserializes a snapshot into a fresh store. shards selects the
// partitioning of the loaded store: 0 honors the count recorded in the
// snapshot, n >= 1 forces an n-way store — re-sharding is always possible
// because partition assignment is a pure hash of the series name. The opts'
// Schema is ignored (the snapshot records its own) but storage options apply
// to every shard.
//
// Derived state loads by the cheapest sound path the snapshot allows: a
// snapshot whose slab count matches the effective shard count validates and
// adopts the packed trees as-is (no extraction, no FFT, no STR sort — cold
// start is O(bytes read)); one loaded at a different shard count reuses the
// DERV points and spectra and only re-packs the trees; one without the
// derived sections rebuilds everything with bulk loading.
func ReadEngine(r io.Reader, opts Options, shards int) (Engine, error) {
	s, err := readStore(r, opts, shards)
	if err != nil {
		return nil, err
	}
	return s.Engine(), nil
}

func readStore(r io.Reader, opts Options, shards int) (*Store, error) {
	br := bufio.NewReaderSize(r, 1<<18)
	h, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	if shards == 0 {
		shards = h.shards
	}
	if shards < 1 {
		return nil, fmt.Errorf("core: shard count %d must be >= 0", shards)
	}
	names, rawVals, err := readSeries(br, h)
	if err != nil {
		return nil, err
	}
	der, err := readDerivedSections(br, h)
	if err != nil {
		return nil, err
	}
	var values [][]float64
	if der.points == nil {
		// No DERV section: this load rebuilds derived state from the
		// values, so decode them after all (the adopt path never needs the
		// floats).
		values = decodeRawSeries(rawVals, h.length)
	}
	seq, recs, haveHist, err := readHistory(br)
	if err != nil {
		return nil, err
	}
	var costs plan.Costs
	haveCosts := false
	if haveHist {
		if costs, haveCosts, err = readCosts(br); err != nil {
			return nil, err
		}
	}
	// The packed trees partition records exactly as the writing store did;
	// they are adoptable only when this load partitions the same way.
	trees := der.trees
	if len(trees) != shards || der.points == nil {
		trees = nil
	}
	opts.Schema = h.schema
	s, err := NewStore(h.length, shards, opts)
	if err != nil {
		return nil, err
	}
	if err := s.insertBulkPrepared(names, values, rawVals, der.points, der.specs, trees); err != nil {
		s.Close()
		return nil, err
	}
	if haveHist {
		s.history.Import(seq, recs)
	}
	if haveCosts {
		s.tracker.SetCosts(costs)
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
