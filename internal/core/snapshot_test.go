package core

// The snapshot reader's gates: every load path of both formats answers like
// the store that wrote the file, a flipped byte in any TSQ4 section is an
// error naming that section, no header can size an allocation, and no input
// panics the reader.
//
// The TSQ3 fixtures under testdata/ were written by the last build that
// wrote the format (commit 2aa875b, the parent of PR 25), and
// tsq3-answers.json holds that build's answers to compatAnswers on them. To
// regenerate, check out 2aa875b, add compatAnswers below and this test to
// internal/core, and run `go test ./internal/core -run TestGenTSQ3 -count=1`:
//
//	func TestGenTSQ3(t *testing.T) {
//		data := dataset.RandomWalks(30, 32, 25)
//		names, values := make([]string, len(data)), make([][]float64, len(data))
//		for i, d := range data {
//			names[i], values[i] = d.Name, d.Values
//		}
//		for _, shards := range []int{1, 4} {
//			s, _ := NewStore(32, shards, Options{})
//			s.InsertBulk(names, values)
//			q := RangeQuery{Values: values[3], Eps: 4, Transform: transform.MovingAverage(32, 5), BothSides: true}
//			pl, _ := s.PlanRange(q, plan.Index)
//			s.ExecRangeInto(q, pl, nil)
//			f, _ := os.Create(fmt.Sprintf("testdata/tsq3-shards%d.snap", shards))
//			s.WriteTo(f)
//			f.Close()
//			if shards == 1 {
//				b, _ := json.Marshal(compatAnswers(t, s.Engine()))
//				os.WriteFile("testdata/tsq3-answers.json", b, 0o644)
//			}
//		}
//	}

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/plan"
	"repro/internal/transform"
)

// compatAnswer is one answer of compatAnswers, by name.
type compatAnswer struct {
	A, B string
	Dist float64
}

// compatAnswers runs one query of every kind against a store of length-32
// series and reports the answers by name: what a store loaded from the TSQ3
// fixtures must answer like the store that wrote them.
func compatAnswers(t *testing.T, e Engine) map[string][]compatAnswer {
	t.Helper()
	const length = 32
	mavg := transform.MovingAverage(length, 5)
	revMavg, err := transform.Reverse(length).Compose(mavg)
	if err != nil {
		t.Fatal(err)
	}
	q := queryValues(length, 7)
	out := map[string][]compatAnswer{}
	results := func(label string, rs []Result, err error) {
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, r := range rs {
			out[label] = append(out[label], compatAnswer{A: r.Name, Dist: r.Dist})
		}
	}
	pairs := func(label string, ps []JoinPair, err error) {
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, p := range ps {
			out[label] = append(out[label], compatAnswer{A: e.Name(p.A), B: e.Name(p.B), Dist: p.Dist})
		}
	}
	for _, strat := range []plan.Strategy{plan.Index, plan.ScanFreq, plan.ScanTime} {
		r, _, err := forcedRange(e, RangeQuery{Values: q, Eps: 4, Transform: mavg, BothSides: true}, strat)
		results(fmt.Sprintf("range/%v", strat), r, err)
	}
	for _, strat := range []plan.Strategy{plan.Index, plan.ScanFreq} {
		r, _, err := forcedNN(e, NNQuery{Values: q, K: 5, Transform: revMavg}, strat)
		results(fmt.Sprintf("nn/%v", strat), r, err)
	}
	for _, m := range []JoinMethod{JoinScanEarlyAbandon, JoinIndexTransform} {
		p, _, err := e.SelfJoin(2.5, mavg, m)
		pairs(fmt.Sprintf("selfjoin/%v", m), p, err)
	}
	p, _, err := forcedJoinTwoSided(e, 2, revMavg, mavg)
	pairs("join-two-sided", p, err)
	return out
}

// answersWithin requires got to hold want's answers, names exact, distances
// within tol.
func answersWithin(t *testing.T, label string, got, want map[string][]compatAnswer, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d query kinds answered, want %d", label, len(got), len(want))
	}
	for kind, w := range want {
		g := got[kind]
		if len(g) != len(w) {
			t.Errorf("%s %s: %d answers, the writer gave %d", label, kind, len(g), len(w))
			continue
		}
		for i := range w {
			if g[i].A != w[i].A || g[i].B != w[i].B || math.Abs(g[i].Dist-w[i].Dist) > tol {
				t.Errorf("%s %s answer %d: %+v, the writer gave %+v", label, kind, i, g[i], w[i])
			}
		}
	}
}

// snapSection locates one framed section of a TSQ4 snapshot.
type snapSection struct {
	tag              string
	at, payload, end int // frame start, payload start, one past the checksum
}

// sectionsOf splits a TSQ4 snapshot into its sections.
func sectionsOf(t testing.TB, b []byte) []snapSection {
	t.Helper()
	if string(b[:4]) != "TSQ4" {
		t.Fatalf("snapshot opens with %q, not TSQ4", b[:4])
	}
	var out []snapSection
	for at := 4; at < len(b); {
		size := int(binary.LittleEndian.Uint64(b[at+4:]))
		out = append(out, snapSection{tag: string(b[at : at+4]), at: at, payload: at + 12, end: at + 12 + size + 4})
		at = out[len(out)-1].end
	}
	return out
}

// bareTSQ4 is a TSQ4 snapshot cut after its SERS section: what a writer of
// the series alone (or a truncated stream) leaves.
func bareTSQ4(t testing.TB, b []byte) []byte {
	t.Helper()
	for _, s := range sectionsOf(t, b) {
		if s.tag == "SERS" {
			return b[:s.end]
		}
	}
	t.Fatal("no SERS section")
	return nil
}

// writeSnapshot returns e's snapshot bytes.
func writeSnapshot(t testing.TB, e Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := e.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

func readTestdata(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// loadBoth loads a snapshot at the given shard count twice — into memory
// and onto disk behind a small buffer pool — and closes both at cleanup.
func loadBoth(t *testing.T, raw []byte, shards int) (mem, disk Engine) {
	t.Helper()
	mem, err := ReadEngine(bytes.NewReader(raw), Options{}, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mem.Close() })
	disk, err = ReadEngine(bytes.NewReader(raw), Options{Backing: t.TempDir(), CachePages: 4}, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	return mem, disk
}

// diskAnswersLikeMemory requires a disk-backed load to answer every query
// kind bit for bit like the memory load of the same snapshot, and again
// after both compact.
func diskAnswersLikeMemory(t *testing.T, mem, disk Engine, length int) {
	t.Helper()
	allKindsParity(t, mem, disk, length)
	for _, e := range []Engine{mem, disk} {
		if _, err := e.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	allKindsParity(t, mem, disk, length)
}

// TestSnapshotCompatVersions is the snapshot load-path gate. The legacy
// TSQ3 fixtures — written at one shard and at four, and the first one cut
// short before its derived sections — load at shard counts 0 (the recorded
// one), 1 and 4 (adopting the packed trees where the counts match,
// re-sharding from DERV where they do not, rebuilding without it) and answer
// within 1e-12 of the build that wrote them; written back, they are TSQ4 and
// load at 1 and 4 the same way. TSQ4 snapshots of this build, at one shard,
// at four and bare, load at 0, 1 and 4 and answer identically to the store
// that wrote them. Every load runs onto disk too, and answers bit for bit
// like the memory load, before and after a Compact.
func TestSnapshotCompatVersions(t *testing.T) {
	var golden map[string][]compatAnswer
	if err := json.Unmarshal(readTestdata(t, "tsq3-answers.json"), &golden); err != nil {
		t.Fatal(err)
	}
	tsq3 := readTestdata(t, "tsq3-shards1.snap")
	// The series records end where DERV begins: a header, then 30 records of
	// a two-byte length, a five-byte name and 32 values.
	bare3 := tsq3[:18+30*(2+5+8*32)]
	if !bytes.HasPrefix(tsq3[len(bare3):], derivedTag[:]) {
		t.Fatal("the TSQ3 fixture's series records do not end where DERV begins")
	}
	for _, fx := range []struct {
		label    string
		raw      []byte
		recorded int
	}{
		{"tsq3-shards1", tsq3, 1},
		{"tsq3-shards4", readTestdata(t, "tsq3-shards4.snap"), 4},
		{"tsq3-bare", bare3, 1},
	} {
		for _, shards := range []int{0, 1, 4} {
			t.Run(fmt.Sprintf("%s/load-shards=%d", fx.label, shards), func(t *testing.T) {
				got, disk := loadBoth(t, fx.raw, shards)
				want := cmp.Or(shards, fx.recorded)
				if got.Len() != 30 || got.Shards() != want || disk.Len() != 30 || disk.Shards() != want {
					t.Fatalf("loaded %d and %d series over %d and %d shards, want 30 over %d", got.Len(), disk.Len(), got.Shards(), disk.Shards(), want)
				}
				answersWithin(t, "loaded", compatAnswers(t, got), golden, 1e-12)
				rewritten := writeSnapshot(t, got)
				for _, to := range []int{1, 4} {
					back, err := ReadEngine(bytes.NewReader(rewritten), Options{}, to)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { back.Close() })
					answersWithin(t, fmt.Sprintf("rewritten as TSQ4, loaded at %d shards", to), compatAnswers(t, back), golden, 1e-12)
				}
				diskAnswersLikeMemory(t, got, disk, 32)
			})
		}
	}

	const (
		count  = 150
		length = 64
	)
	data := dataset.RandomWalks(count, length, 23)
	names := make([]string, len(data))
	values := make([][]float64, len(data))
	for i, d := range data {
		names[i] = d.Name
		values[i] = d.Values
	}
	build := func(t *testing.T, shards int) Engine {
		e := newTestEngine(t, length, shards, Options{})
		if err := e.InsertBulk(names, values); err != nil {
			t.Fatal(err)
		}
		return e
	}
	srcDB := build(t, 1)
	one := writeSnapshot(t, srcDB)
	for _, fx := range []struct {
		label    string
		raw      []byte
		recorded int
	}{
		{"tsq4-shards1", one, 1},
		{"tsq4-shards4", writeSnapshot(t, build(t, 4)), 4},
		{"tsq4-bare", bareTSQ4(t, one), 1},
	} {
		for _, shards := range []int{0, 1, 4} {
			t.Run(fmt.Sprintf("%s/load-shards=%d", fx.label, shards), func(t *testing.T) {
				got, disk := loadBoth(t, fx.raw, shards)
				want := cmp.Or(shards, fx.recorded)
				if got.Len() != count || got.Shards() != want || disk.Len() != count || disk.Shards() != want {
					t.Fatalf("loaded %d and %d series over %d and %d shards, want %d over %d", got.Len(), disk.Len(), got.Shards(), disk.Shards(), count, want)
				}
				allKindsParity(t, srcDB, got, length)
				diskAnswersLikeMemory(t, got, disk, length)
			})
		}
	}
}

// smallSnapshotStore is a store with something in every section: series,
// derived data, packed trees at the given width, plan history and costs.
func smallSnapshotStore(t testing.TB, shards, count, length int) Engine {
	t.Helper()
	s, err := NewStore(length, shards, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	data := dataset.RandomWalks(count, length, 41)
	names, values := make([]string, len(data)), make([][]float64, len(data))
	for i, d := range data {
		names[i], values[i] = d.Name, d.Values
	}
	if err := s.InsertBulk(names, values); err != nil {
		t.Fatal(err)
	}
	q := RangeQuery{Values: values[1], Eps: 3, Transform: transform.Identity(length)}
	pl, err := s.PlanRange(q, plan.Auto)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ExecRangeInto(q, pl, nil); err != nil {
		t.Fatal(err)
	}
	return s.Engine()
}

// TestSnapshotChecksumNamesTheSection: one flipped byte in the payload of
// any TSQ4 section — header, series, DERV, SLAB, PLNH, CCAL — or in a
// section's checksum is refused, and so is a snapshot cut where a section's
// payload begins or one byte before its end; the error names the section.
// Snapshots written at one shard and at four load into memory and onto disk,
// and a disk load that fails leaves its backing directory as it found it.
func TestSnapshotChecksumNamesTheSection(t *testing.T) {
	for _, shards := range []int{1, 4} {
		snap := writeSnapshot(t, smallSnapshotStore(t, shards, 24, 32))
		var tags []string
		for _, sec := range sectionsOf(t, snap) {
			tags = append(tags, sec.tag)
			flip := func(off int) []byte {
				bad := bytes.Clone(snap)
				bad[off] ^= 0x20
				return bad
			}
			for _, c := range []struct {
				what string
				raw  []byte
			}{
				{"a flipped payload byte", flip((sec.payload + sec.end - 4) / 2)},
				{"a flipped checksum byte", flip(sec.end - 1)},
				{"a cut where the payload begins", snap[:sec.payload]},
				{"a cut one byte before the end", snap[:sec.end-1]},
			} {
				for _, disk := range []bool{false, true} {
					label := fmt.Sprintf("shards=%d %s: %s (disk %t)", shards, sec.tag, c.what, disk)
					opts := Options{}
					if disk {
						opts.Backing = t.TempDir()
					}
					eng, err := ReadEngine(bytes.NewReader(c.raw), opts, 0)
					if err == nil {
						eng.Close()
						t.Errorf("%s loaded", label)
						continue
					}
					if !strings.Contains(err.Error(), sec.tag) {
						t.Errorf("%s fails without naming the section: %v", label, err)
					}
					if disk {
						if left := listDir(t, opts.Backing); len(left) != 0 {
							t.Errorf("%s leaves %v in the backing directory", label, left)
						}
					}
				}
			}
		}
		if got := strings.Join(tags, " "); got != "HEAD SERS DERV SLAB PLNH CCAL" {
			t.Fatalf("the snapshot's sections are %s", got)
		}
	}
}

// TestSnapshotHeaderCannotSizeAnAllocation: crafted headers and section
// frames that promise billions of series, gigabyte records or more history
// than any store keeps — checksums valid where the format has them — each
// load to an error, and what the attempt allocates stays under 64 MiB.
func TestSnapshotHeaderCannotSizeAnAllocation(t *testing.T) {
	le := binary.LittleEndian
	header := func(k uint16, length uint32, shards uint16, count uint32) []byte {
		b := []byte{1} // polar
		b = le.AppendUint16(b, k)
		b = append(b, 1) // moments
		b = le.AppendUint32(b, length)
		b = le.AppendUint16(b, shards)
		return le.AppendUint32(b, count)
	}
	frame := func(tag string, size uint64, payload []byte) []byte {
		b := le.AppendUint64([]byte(tag), size)
		b = append(b, payload...)
		return le.AppendUint32(b, crc32.Checksum(b, castagnoli))
	}
	tsq3 := func(h []byte, rest ...byte) []byte { return append(append([]byte("TSQ3"), h...), rest...) }
	tsq4 := func(frames ...[]byte) []byte { return bytes.Join(append([][]byte{[]byte("TSQ4")}, frames...), nil) }
	empty := header(2, 64, 1, 0)
	for _, c := range []struct {
		label string
		raw   []byte
	}{
		{"TSQ3 count 2^31 of length 2^31", tsq3(header(2, 1<<31, 1, 1<<31))},
		{"TSQ3 count 2^32-1", tsq3(header(2, 64, 1, math.MaxUint32), 5, 0, 'W', '0', '0', '0', '0')},
		{"TSQ3 length 2^32-1", tsq3(header(2, math.MaxUint32, 1, 1), 1, 0, 'W')},
		{"TSQ3 length 3", tsq3(header(2, 3, 1, 1))},
		{"TSQ3 K the length cannot hold", tsq3(header(64, 64, 1, 1))},
		{"TSQ3 K 0", tsq3(header(0, 64, 1, 1))},
		{"TSQ3 zero shards", tsq3(header(2, 64, 0, 1))},
		{"TSQ3 history count 2^32-1", tsq3(empty, append([]byte("PLNH\x01\x00\x00\x00\x00\x00\x00\x00"), 0xff, 0xff, 0xff, 0xff)...)},
		{"TSQ3 tree of 2^32-1 bytes", tsq3(empty, append([]byte("SLAB\x01\x00"), 0xff, 0xff, 0xff, 0xff, 'R', 'T', 'S', '1')...)},
		{"TSQ4 count and length 2^31", tsq4(frame("HEAD", 14, header(2, 1<<31, 1, 1<<31)), frame("SERS", 1<<62, nil))},
		{"TSQ4 series section of 2^63-1 bytes", tsq4(frame("HEAD", 14, header(2, 64, 1, 1<<20)), frame("SERS", math.MaxInt64, nil))},
		{"TSQ4 section of 2^64-1 bytes", tsq4(frame("HEAD", math.MaxUint64, nil))},
		{"TSQ4 length 3", tsq4(frame("HEAD", 14, header(2, 3, 1, 0)))},
		{"TSQ4 history count 2^32-1", tsq4(frame("HEAD", 14, empty), frame("SERS", 0, nil),
			frame("PLNH", 12, append(make([]byte, 8), 0xff, 0xff, 0xff, 0xff)))},
		{"TSQ4 2^20 series in an empty section", tsq4(frame("HEAD", 14, header(2, 64, 1, 1<<20)), frame("SERS", 0, nil))},
		{"TSQ4 65,535 shards over an empty SERS", tsq4(frame("HEAD", 14, header(2, 64, math.MaxUint16, math.MaxUint32)), frame("SERS", 0, nil))},
	} {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng, err := ReadEngine(bytes.NewReader(c.raw), Options{}, 0)
		runtime.ReadMemStats(&after)
		if err == nil {
			eng.Close()
			t.Errorf("%s: loaded", c.label)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
			t.Errorf("%s: the load allocated %d MiB", c.label, grew>>20)
		}
	}
}

// FuzzReadSnapshot: whatever the bytes, the reader returns a store or an
// error — never a panic — into memory and onto disk alike, and the backing
// directory of a disk load is empty again once the load has failed or its
// store has been closed. Seeded with TSQ4 snapshots at one shard, at four
// and bare, and the TSQ3 fixture.
func FuzzReadSnapshot(f *testing.F) {
	one := writeSnapshot(f, smallSnapshotStore(f, 1, 6, 8))
	f.Add(one)
	f.Add(writeSnapshot(f, smallSnapshotStore(f, 4, 6, 8)))
	f.Add(bareTSQ4(f, one))
	f.Add(readTestdata(f, "tsq3-shards1.snap"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		for _, opts := range []Options{{}, {Backing: dir}} {
			eng, err := ReadEngine(bytes.NewReader(raw), opts, 0)
			if err == nil {
				eng.Close()
			}
			if left := listDir(t, dir); len(left) != 0 {
				t.Fatalf("after a load (error %v) the backing directory holds %v", err, left)
			}
		}
	})
}
