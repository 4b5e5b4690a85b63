package core

// The snapshot reader's gates: every load path answers like the store that
// wrote the file, a snapshot holds the store and nothing it has served, a
// flipped byte in any section is an error naming that section, no header
// can size an allocation, and no input panics the reader.
//
// The TSQ3 fixtures under testdata/ were written by the last build that
// wrote the format (commit 2aa875b), and tsq3-answers.json holds that
// build's answers to compatAnswers on them; they stay as the golden answers
// and as TSQ3 files the reader must refuse. The TSQ4 fixtures are the same
// stores loaded and saved again by the last build that read TSQ3 (commit
// 5f712f0), so they carry the retired PLNH and CCAL sections as every
// snapshot of that build does:
//
//	for _, shards := range []int{1, 4} {
//		raw, _ := os.ReadFile(fmt.Sprintf("testdata/tsq3-shards%d.snap", shards))
//		e, _ := ReadEngine(bytes.NewReader(raw), Options{}, 0)
//		f, _ := os.Create(fmt.Sprintf("testdata/tsq4-shards%d.snap", shards))
//		e.WriteTo(f)
//		f.Close()
//	}
//
// The TSQ3 fixtures themselves were generated at 2aa875b with compatAnswers
// below and this test in internal/core, by
// `go test ./internal/core -run TestGenTSQ3 -count=1`:
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
	"reflect"
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
// series and reports the answers by name: what a store loaded from the
// fixtures must answer like the store that first wrote them.
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

// refusedEverywhere requires every raw snapshot to be refused at the given
// shard count, into memory and onto disk, by an error naming what, and a
// refused disk load to leave its backing directory as it found it.
func refusedEverywhere(t *testing.T, what string, shards int, raws ...[]byte) {
	t.Helper()
	for i, raw := range raws {
		for _, opts := range []Options{{}, {Backing: t.TempDir()}} {
			eng, err := ReadEngine(bytes.NewReader(raw), opts, shards)
			if err == nil {
				eng.Close()
				t.Errorf("snapshot %d loaded (backing %q)", i, opts.Backing)
				continue
			}
			if !strings.Contains(err.Error(), what) {
				t.Errorf("snapshot %d is refused without naming %s: %v", i, what, err)
			}
			if opts.Backing != "" {
				if left := listDir(t, opts.Backing); len(left) != 0 {
					t.Errorf("snapshot %d's refusal leaves %v in the backing directory", i, left)
				}
			}
		}
	}
}

// TestSnapshotCompatVersions is the snapshot load-path gate. The TSQ4
// fixtures — the TSQ3 fixtures' stores as the last build that read TSQ3
// saved them, at one shard and at four, retired PLNH and CCAL sections
// included — load at shard counts 0 (the recorded one), 1 and 4 (adopting
// the packed trees where the counts match, re-packing them from DERV where
// they do not) and answer within 1e-12 of the build that first wrote them;
// written back, they load at 1 and 4 the same way. Snapshots of this build,
// at one shard and at four, load at 0, 1 and 4 and answer identically to
// the store that wrote them. Every load runs onto disk too, and answers bit
// for bit like the memory load, before and after a Compact. A snapshot cut
// after its series — the fixture or this build's — is refused, naming DERV,
// and the TSQ3 fixtures, whole or cut after their series, naming TSQ3.
func TestSnapshotCompatVersions(t *testing.T) {
	var golden map[string][]compatAnswer
	if err := json.Unmarshal(readTestdata(t, "tsq3-answers.json"), &golden); err != nil {
		t.Fatal(err)
	}
	fixture := readTestdata(t, "tsq4-shards1.snap")
	for _, fx := range []struct {
		label    string
		raw      []byte
		recorded int
	}{
		{"tsq4-shards1", fixture, 1},
		{"tsq4-shards4", readTestdata(t, "tsq4-shards4.snap"), 4},
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
					answersWithin(t, fmt.Sprintf("written back, loaded at %d shards", to), compatAnswers(t, back), golden, 1e-12)
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

	tsq3 := readTestdata(t, "tsq3-shards1.snap")
	// The TSQ3 series records end where DERV begins: a header, then 30
	// records of a two-byte length, a five-byte name and 32 values.
	bare3 := tsq3[:18+30*(2+5+8*32)]
	if !bytes.HasPrefix(tsq3[len(bare3):], derivedTag[:]) {
		t.Fatal("the TSQ3 fixture's series records do not end where DERV begins")
	}
	for _, fx := range []struct {
		label, what string
		raws        [][]byte
	}{
		{"tsq3-shards1", "TSQ3", [][]byte{tsq3}},
		{"tsq3-shards4", "TSQ3", [][]byte{readTestdata(t, "tsq3-shards4.snap")}},
		{"tsq3-bare", "TSQ3", [][]byte{bare3}},
		{"tsq4-bare", "DERV", [][]byte{bareTSQ4(t, fixture), bareTSQ4(t, one)}},
	} {
		for _, shards := range []int{0, 1, 4} {
			t.Run(fmt.Sprintf("%s/load-shards=%d", fx.label, shards), func(t *testing.T) {
				refusedEverywhere(t, fx.what, shards, fx.raws...)
			})
		}
	}

	for _, fx := range []struct {
		label    string
		raw      []byte
		recorded int
	}{
		{"built-shards1", one, 1},
		{"built-shards4", writeSnapshot(t, build(t, 4)), 4},
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

// TestSnapshotIsTheStore: a snapshot holds what the store stores and
// nothing it has served. Two stores given the same writes write the same
// bytes, though one of them has also planned and run range, NN and join
// reads, auto and forced. A churned store that has served reads, written,
// loaded at its recorded shard count, read and written again, writes the
// same bytes again, at one shard and at four, loaded into memory and onto
// disk. The loaded store plans a range read and a self join as the store
// that wrote it does.
func TestSnapshotIsTheStore(t *testing.T) {
	const length = 32
	names, values := walks(120, length, 53)
	// churn gives e a bulk load, inserts, deletes and appends.
	churn := func(t *testing.T, e Engine) {
		t.Helper()
		if err := e.InsertBulk(names[:80], values[:80]); err != nil {
			t.Fatal(err)
		}
		for i := 80; i < len(names); i++ {
			if _, err := e.Insert(names[i], values[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < len(names); i += 7 {
			if !e.Delete(names[i]) {
				t.Fatalf("delete %s: missing", names[i])
			}
		}
		for i := 1; i < len(names); i += 5 {
			if i%7 == 0 {
				continue
			}
			if _, err := e.Append(names[i], []float64{float64(i), 1.5, -2}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// serve plans and runs reads of every kind on e, auto and forced.
	serve := func(t *testing.T, e Engine) {
		t.Helper()
		mavg := transform.MovingAverage(length, 5)
		q := queryValues(length, 3)
		for _, want := range []plan.Strategy{plan.Auto, plan.Index, plan.ScanFreq, plan.ScanTime} {
			if _, _, err := forcedRange(e, RangeQuery{Values: q, Eps: 5, Transform: mavg, BothSides: true}, want); err != nil {
				t.Fatal(err)
			}
		}
		for _, want := range []plan.Strategy{plan.Auto, plan.Index, plan.ScanFreq} {
			if _, _, err := forcedNN(e, NNQuery{Values: q, K: 4, Transform: mavg}, want); err != nil {
				t.Fatal(err)
			}
			jq := JoinQuery{Eps: 2, Left: mavg, Right: mavg}
			pl, err := e.PlanJoin(jq, want)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := e.ExecJoin(jq, pl); err != nil {
				t.Fatal(err)
			}
		}
	}
	// plans is what EXPLAIN shows of e's AUTO plans for a fixed range read
	// and a fixed self join, less the engine's execution payload.
	plans := func(t *testing.T, e Engine) []plan.Plan {
		t.Helper()
		mavg := transform.MovingAverage(length, 5)
		rp, err := e.PlanRange(RangeQuery{Values: queryValues(length, 3), Eps: 5, Transform: mavg, BothSides: true}, plan.Auto)
		if err != nil {
			t.Fatal(err)
		}
		jp, err := e.PlanJoin(JoinQuery{Eps: 2, Left: mavg, Right: mavg}, plan.Auto)
		if err != nil {
			t.Fatal(err)
		}
		out := []plan.Plan{*rp, *jp}
		for i := range out {
			out[i].Internal = nil
		}
		return out
	}

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d/served-or-not", shards), func(t *testing.T) {
			idle, busy := newTestEngine(t, length, shards, Options{}), newTestEngine(t, length, shards, Options{})
			churn(t, idle)
			churn(t, busy)
			serve(t, busy)
			if a, b := writeSnapshot(t, idle), writeSnapshot(t, busy); !bytes.Equal(a, b) {
				t.Fatalf("the store that served reads writes %d bytes, its idle twin %d, and they differ", len(b), len(a))
			}
		})
		for _, disk := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/disk=%t/load-and-rewrite", shards, disk), func(t *testing.T) {
				src := newTestEngine(t, length, shards, Options{})
				churn(t, src)
				serve(t, src)
				first := writeSnapshot(t, src)
				var opts Options
				if disk {
					opts.Backing = t.TempDir()
				}
				got, err := ReadEngine(bytes.NewReader(first), opts, 0)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { got.Close() })
				if got.Shards() != shards || got.Len() != src.Len() {
					t.Fatalf("loaded %d series over %d shards, wrote %d over %d", got.Len(), got.Shards(), src.Len(), shards)
				}
				if a, b := plans(t, src), plans(t, got); !reflect.DeepEqual(a, b) {
					t.Errorf("the loaded store plans\n %+v\nthe store that wrote it\n %+v", b, a)
				}
				serve(t, got)
				if again := writeSnapshot(t, got); !bytes.Equal(first, again) {
					t.Fatalf("written, loaded, read and written again: %d bytes, first %d, and they differ", len(again), len(first))
				}
			})
		}
	}
}

// smallSnapshotStore is a store with something in every section — series,
// derived data, packed trees at the given width — that has served a read.
func smallSnapshotStore(t testing.TB, shards, count, length int) Engine {
	t.Helper()
	s, err := NewStore(length, shards, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	names, values := walks(count, length, 41)
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
// any section — header, series, DERV, SLAB, and a checked-in fixture's
// retired PLNH and CCAL — or in a section's checksum is refused, and so is
// a snapshot cut where a section's payload begins or one byte before its
// end; the error names the section. Snapshots written at one shard and at
// four, and the fixture, load into memory and onto disk, and a disk load
// that fails leaves its backing directory as it found it.
func TestSnapshotChecksumNamesTheSection(t *testing.T) {
	for _, c := range []struct {
		label string
		snap  []byte
		tags  string
	}{
		{"shards=1", writeSnapshot(t, smallSnapshotStore(t, 1, 24, 32)), "HEAD SERS DERV SLAB"},
		{"shards=4", writeSnapshot(t, smallSnapshotStore(t, 4, 24, 32)), "HEAD SERS DERV SLAB"},
		{"tsq4-shards1.snap", readTestdata(t, "tsq4-shards1.snap"), "HEAD SERS DERV SLAB PLNH CCAL"},
	} {
		snap := c.snap
		var tags []string
		for _, sec := range sectionsOf(t, snap) {
			tags = append(tags, sec.tag)
			flip := func(off int) []byte {
				bad := bytes.Clone(snap)
				bad[off] ^= 0x20
				return bad
			}
			for _, bad := range []struct {
				what string
				raw  []byte
			}{
				{"a flipped payload byte", flip((sec.payload + sec.end - 4) / 2)},
				{"a flipped checksum byte", flip(sec.end - 1)},
				{"a cut where the payload begins", snap[:sec.payload]},
				{"a cut one byte before the end", snap[:sec.end-1]},
			} {
				for _, disk := range []bool{false, true} {
					label := fmt.Sprintf("%s %s: %s (disk %t)", c.label, sec.tag, bad.what, disk)
					opts := Options{}
					if disk {
						opts.Backing = t.TempDir()
					}
					eng, err := ReadEngine(bytes.NewReader(bad.raw), opts, 0)
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
		if got := strings.Join(tags, " "); got != c.tags {
			t.Fatalf("%s: the snapshot's sections are %s, want %s", c.label, got, c.tags)
		}
		for _, disk := range []bool{false, true} {
			opts := Options{}
			if disk {
				opts.Backing = t.TempDir()
			}
			eng, err := ReadEngine(bytes.NewReader(snap), opts, 0)
			if err != nil {
				t.Fatalf("%s (disk %t): %v", c.label, disk, err)
			}
			eng.Close()
		}
	}
}

// TestSnapshotSlabMatchesDerv: a SLAB frame with a valid checksum but
// taken from another store — the same 200 walks, except that series 5 is
// another walk — spliced after this store's HEAD, SERS and DERV, is refused
// by name. Adopted, its tree would file W0005 under the other walk's point,
// and an indexed range read of W0005's own values at eps 0.01 would dismiss
// it while a scan finds it.
func TestSnapshotSlabMatchesDerv(t *testing.T) {
	const count, length = 200, 64
	last := func(b []byte) snapSection { secs := sectionsOf(t, b); return secs[len(secs)-1] }
	names, values := walks(count, length, 7)
	other := append([][]float64(nil), values...)
	other[5] = dataset.RandomWalks(count, length, 8)[5].Values
	for _, shards := range []int{1, 4} {
		write := func(values [][]float64) []byte {
			eng := newTestEngine(t, length, shards, Options{})
			if err := eng.InsertBulk(names, values); err != nil {
				t.Fatal(err)
			}
			return writeSnapshot(t, eng)
		}
		a, b := write(values), write(other)
		sa, sb := last(a), last(b)
		if sa.tag != "SLAB" || sb.tag != "SLAB" {
			t.Fatalf("the snapshots end in %s and %s, not SLAB", sa.tag, sb.tag)
		}
		spliced := append(bytes.Clone(a[:sa.at]), b[sb.at:]...)

		eng, err := ReadEngine(bytes.NewReader(spliced), Options{}, 0)
		if err == nil {
			q := RangeQuery{Values: values[5], Eps: 0.01, Transform: transform.Identity(length)}
			idx, _, _ := forcedRange(eng, q, plan.Index)
			scan, _, _ := forcedRange(eng, q, plan.ScanFreq)
			eng.Close()
			t.Fatalf("shards=%d: a spliced SLAB loaded; W0005 at eps 0.01 answers %d series by index, %d by scan", shards, len(idx), len(scan))
		}
		if !strings.Contains(err.Error(), "SLAB") {
			t.Fatalf("shards=%d: the spliced SLAB fails without naming the section: %v", shards, err)
		}
	}
}

// TestSnapshotHeaderCannotSizeAnAllocation: crafted headers and section
// frames that promise billions of series, gigabyte records or trees, or a
// retired section of exabytes — checksums valid — each load to an error,
// and what the attempt allocates stays under 64 MiB.
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
	tsq4 := func(frames ...[]byte) []byte { return bytes.Join(append([][]byte{[]byte("TSQ4")}, frames...), nil) }
	head := func(k uint16, length uint32, shards uint16, count uint32) []byte {
		return frame("HEAD", 14, header(k, length, shards, count))
	}
	empty := [][]byte{head(2, 64, 1, 0), frame("SERS", 0, nil), frame("DERV", 0, nil)}
	for _, c := range []struct {
		label string
		raw   []byte
	}{
		{"count and length 2^31", tsq4(head(2, 1<<31, 1, 1<<31), frame("SERS", 1<<62, nil))},
		{"count 2^32-1 with a name", tsq4(head(2, 64, 1, math.MaxUint32), frame("SERS", 1<<62, []byte{5, 0, 'W', '0', '0', '0', '0'}))},
		{"series section of 2^63-1 bytes", tsq4(head(2, 64, 1, 1<<20), frame("SERS", math.MaxInt64, nil))},
		{"section of 2^64-1 bytes", tsq4(frame("HEAD", math.MaxUint64, nil))},
		{"length 2^32-1", tsq4(head(2, math.MaxUint32, 1, 1), frame("SERS", 1<<62, []byte{1, 0, 'W'}))},
		{"length 3", tsq4(head(2, 3, 1, 0))},
		{"K the length cannot hold", tsq4(head(64, 64, 1, 1))},
		{"K 0", tsq4(head(0, 64, 1, 1))},
		{"zero shards", tsq4(head(2, 64, 0, 1))},
		{"2^20 series in an empty section", tsq4(head(2, 64, 1, 1<<20), frame("SERS", 0, nil))},
		{"65,535 shards over an empty SERS", tsq4(head(2, 64, math.MaxUint16, math.MaxUint32), frame("SERS", 0, nil))},
		{"tree of 2^32-1 bytes", tsq4(append(empty, frame("SLAB", 10, []byte{1, 0, 0xff, 0xff, 0xff, 0xff, 'R', 'T', 'S', '1'}))...)},
		{"retired PLNH of 2^62 bytes and 2^32-1 records", tsq4(append(empty, frame("SLAB", 2, []byte{0, 0}),
			frame("PLNH", 1<<62, append(make([]byte, 8), 0xff, 0xff, 0xff, 0xff)))...)},
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
// store has been closed. Seeded with this build's snapshots at one shard,
// at four and bare, the TSQ3 fixture and the TSQ4 fixture with its retired
// sections.
func FuzzReadSnapshot(f *testing.F) {
	one := writeSnapshot(f, smallSnapshotStore(f, 1, 6, 8))
	f.Add(one)
	f.Add(writeSnapshot(f, smallSnapshotStore(f, 4, 6, 8)))
	f.Add(bareTSQ4(f, one))
	f.Add(readTestdata(f, "tsq3-shards1.snap"))
	f.Add(readTestdata(f, "tsq4-shards1.snap"))
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
