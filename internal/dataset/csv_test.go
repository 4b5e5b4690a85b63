package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// lineReader is the CSV reader the block reader replaced: bufio.Scanner
// lines, strings.Split fields, every field trimmed before ParseFloat. It is
// the oracle ReadCSV must match, rows and error text alike.
func lineReader(r io.Reader) ([]Series, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var out []Series
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) < 2 {
			return nil, fmt.Errorf("dataset: line %d: need a name and at least one value", lineNo)
		}
		vals := make([]float64, len(fields)-1)
		for i, f := range fields[1:] {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d field %d: %v", lineNo, i+2, err)
			}
			vals[i] = v
		}
		out = append(out, Series{Name: strings.TrimSpace(fields[0]), Values: vals})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// sameAnswer reports how two readers' answers differ, "" if they do not:
// the same error text, or the same rows with the same value bits.
func sameAnswer(got []Series, gotErr error, want []Series, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || len(got[i].Values) != len(want[i].Values) {
			return fmt.Sprintf("row %d is %q with %d values, want %q with %d", i, got[i].Name, len(got[i].Values), want[i].Name, len(want[i].Values))
		}
		for j, v := range want[i].Values {
			if math.Float64bits(got[i].Values[j]) != math.Float64bits(v) {
				return fmt.Sprintf("row %d value %d is %v, want %v", i, j, got[i].Values[j], v)
			}
		}
	}
	return ""
}

// messyCSV writes count rows in every spelling the reader accepts: CRLF and
// LF endings, blank and '#' lines, spaces and tabs around names and values,
// exponents. Row long (if in range) holds longLen values. The last row has
// no newline. With bad >= 0, one cell of row bad does not parse.
func messyCSV(rng *rand.Rand, count, long, longLen, bad int) string {
	var sb strings.Builder
	pad := func() string { return []string{"", "", " ", "\t", "  "}[rng.Intn(5)] }
	for i := range count {
		switch rng.Intn(8) {
		case 0:
			sb.WriteString("\n")
		case 1:
			sb.WriteString("# comment, 1, 2\r\n")
		case 2:
			sb.WriteString("  \t\r\n")
		}
		fmt.Fprintf(&sb, "%sS%05d%s", pad(), i, pad())
		n := 1 + rng.Intn(300)
		if i == long {
			n = longLen
		}
		badCell := -1
		if i == bad {
			badCell = rng.Intn(n)
		}
		for j := range n {
			v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
			cell := strconv.FormatFloat(v, "gfe"[rng.Intn(3)], -1, 64)
			if j == badCell {
				cell = "1.5x"
			}
			sb.WriteString("," + pad() + cell + pad())
		}
		if i < count-1 {
			sb.WriteString([]string{"\n", "\r\n"}[rng.Intn(2)])
		}
	}
	return sb.String()
}

// TestReadCSVMatchesLineReader: the block reader gives the line reader's
// rows, or its error text, on inputs of several blocks — at the real block
// size and at tiny ones, with one worker and with four — including a row
// longer than a block, a last row with no newline, one bad cell at a random
// row, and a row past the line reader's limit.
func TestReadCSVMatchesLineReader(t *testing.T) {
	seed := int64(20261016)
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	type input struct {
		label, text string
		bad         bool // the line reader refuses it
		sizes       []int
	}
	var inputs []input
	for k := range 6 {
		// Two inputs of about 3 MiB — ~1,200 rows of up to 300 values, one
		// of 200,000 (about 2 MiB) — cut at the real block size; four of
		// about 80 KiB cut into blocks of 4 KiB and of 100 bytes.
		count, longLen, sizes := 1200, 200000, []int{blockSize}
		if k >= 2 {
			count, longLen, sizes = 100, 3000, []int{4096, 100}
		}
		bad := -1
		if k%2 == 1 {
			bad = rng.Intn(count)
		}
		inputs = append(inputs, input{fmt.Sprintf("input %d, bad cell in row %d", k, bad), messyCSV(rng, count, rng.Intn(count), longLen, bad), bad >= 0, sizes})
	}
	past := "B," + strings.Repeat("1,", maxRow/2) + "1\n"
	inputs = append(inputs,
		input{"a row past the limit", "A,1\n" + past + "C,2\n", true, []int{blockSize}},
		input{"a bad row before a row past the limit", "A,x\n" + past, true, []int{blockSize}})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, in := range inputs {
		want, wantErr := lineReader(strings.NewReader(in.text))
		if in.bad != (wantErr != nil) {
			t.Fatalf("%s: the line reader says %v", in.label, wantErr)
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			for _, size := range in.sizes {
				got, err := readCSV(strings.NewReader(in.text), size)
				if diff := sameAnswer(got, err, want, wantErr); diff != "" {
					t.Fatalf("%s, GOMAXPROCS %d, blocks of %d: %s", in.label, procs, size, diff)
				}
			}
		}
	}
}

// FuzzReadCSV: the block reader never panics and gives the line reader's
// answer — rows or error text — at any block size.
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("A,1,2\nB,3,4\n"), uint8(0))
	f.Add([]byte("# c\r\n\n  A , 1 ,\t2\r\nB,3"), uint8(3))
	f.Add([]byte("A\n"), uint8(1))
	f.Add([]byte("A,1\nB,1e999,x\n"), uint8(2))
	f.Add([]byte("  A ,0x1p-2, inf ,NaN\n#,1\n,5\n"), uint8(7))
	for _, field := range boundaryFields {
		f.Add([]byte("A,1,"+field+",2\nB,"+field+"\n"), uint8(5))
	}
	f.Fuzz(func(t *testing.T, data []byte, size uint8) {
		want, wantErr := lineReader(bytes.NewReader(data))
		got, err := readCSV(bytes.NewReader(data), 1+int(size)%64)
		if diff := sameAnswer(got, err, want, wantErr); diff != "" {
			t.Fatalf("blocks of %d: %s", 1+int(size)%64, diff)
		}
	})
}

// TestParseRowAllocs: a row costs its name and its values slice, nothing
// more — no line string, no field slice, no per-field string — whether its
// fields are padded (ParseFloat's path) or plain decimals (parseDecimal's).
func TestParseRowAllocs(t *testing.T) {
	walk := RandomWalk(rand.New(rand.NewSource(1)), 256)
	var padded, plain strings.Builder
	padded.WriteString(" W00042 ")
	plain.WriteString("W00042")
	for _, v := range walk {
		fmt.Fprintf(&padded, ", %g", v)
		fmt.Fprintf(&plain, ",%.2f", v)
	}
	padded.WriteString("\r\n")
	plain.WriteString("\n")
	for _, row := range [][]byte{[]byte(padded.String()), []byte(plain.String())} {
		if a := testing.AllocsPerRun(100, func() {
			if _, ok, err := parseRow(row, 1); !ok || err != nil {
				t.Fatal(ok, err)
			}
		}); a > 2 {
			t.Errorf("parsing the 256-value row %.20q…: %.1f allocs, want <= 2 (its name and its values)", row, a)
		}
	}
}

// boundaryFields are fields at the edges of parseDecimal's exact case and
// just past them: 2^53 and 2^53+1, 19- and 20-digit mantissas (exact only
// with leading zeros), 22 and 23 fraction digits, signs and points alone or
// at an end, and spellings only ParseFloat reads or refuses.
var boundaryFields = []string{
	"9007199254740992", "9007199254740993", "-9007199254740992", "900719925474099.2", "0.9007199254740993",
	"1234567890123456789", "12345678901234567890", "9999999999999999999", "0.1234567890123456789",
	"1.2345678901234567890", "0000000000000000001", "00000000000000000001.5", "00000000000000000000000000012.5",
	"0.0000000000000000000001", "1.0000000000000000000000", "0.00000000000000000000001", "1.00000000000000000000000",
	"-0", "-0.0", "+0", "0", ".5", "5.", "+.5", "-.5", "-5.", ".", "+.", "1.2.3", "..5",
	"1e5", "1E5", "1e-5", " 1.5", "1.5 ", "", "-", "+", "--1", "+-1", "1_0", "0x1p-2", "0x10",
	"Inf", "-Inf", "+inf", "infinity", "NaN", "nan", "1e999", "1e-999", "12a", "a12",
}

// parseField is what the row reader makes of one field: its value or
// error, and whether parseDecimal took it.
func parseField(field string) (v float64, fast bool, err error) {
	_, _, fast = parseDecimal([]byte(field), 0)
	s, _, err := parseRow([]byte("A,"+field), 1)
	if err != nil {
		return 0, fast, err
	}
	return s.Values[0], fast, nil
}

// TestParseDecimalMatchesStrconv: every field reads as strconv.ParseFloat
// reads it trimmed — the same value bits, or the same error text — over the
// boundary fields and 1,200,000 random ones: floats written as the
// benchmark's harness writes them ('f', -1, two decimals), as WriteCSV
// writes them ('g', -1), as 'f' -1 and at fixed precisions, decimals of up
// to 24 random digits with the point anywhere, and decimals near 2^53. The
// exact case must take the boundary fields it claims and every harness
// field.
func TestParseDecimalMatchesStrconv(t *testing.T) {
	check := func(field string) bool {
		t.Helper()
		got, fast, err := parseField(field)
		want, werr := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if werr != nil {
			if text := fmt.Sprintf("dataset: line 1 field 2: %v", werr); err == nil || err.Error() != text {
				t.Fatalf("field %q: error %v, want %s", field, err, text)
			}
		} else if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("field %q: %v (%#x), %v; want %v (%#x)", field, got, math.Float64bits(got), err, want, math.Float64bits(want))
		}
		return fast
	}
	exact := []string{
		"9007199254740992", "-9007199254740992", "900719925474099.2", "0000000000000000001",
		"00000000000000000001.5", "00000000000000000000000000012.5", "0.0000000000000000000001",
		"-0", "-0.0", "+0", "0", ".5", "5.", "+.5", "-.5", "-5.",
	}
	for _, field := range boundaryFields {
		if fast, want := check(field), slices.Contains(exact, field); fast != want {
			t.Errorf("field %q: exact case %t, want %t", field, fast, want)
		}
	}
	if v, end, ok := parseDecimal([]byte("A,1.5,2"), 2); !ok || v != 1.5 || end != 5 {
		t.Errorf("a field before a comma: %v, end %d, %t; want 1.5, 5, true", v, end, ok)
	}

	seed := int64(20261017)
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	scale := func(lo, hi int) float64 { return rng.NormFloat64() * math.Pow(10, float64(lo+rng.Intn(hi-lo))) }
	kinds := []struct {
		name  string
		field func() string
	}{
		{"harness", func() string { return strconv.FormatFloat(math.Round(scale(2, 4))/100, 'f', -1, 64) }},
		{"'g' -1", func() string { return strconv.FormatFloat(scale(-20, 20), 'g', -1, 64) }},
		{"'f' -1", func() string { return strconv.FormatFloat(scale(-15, 15), 'f', -1, 64) }},
		{"fixed precision", func() string { return strconv.FormatFloat(scale(-5, 15), 'f', rng.Intn(25), 64) }},
		{"random digits", func() string {
			b := []byte{"  +-"[rng.Intn(4)]}
			nd := 1 + rng.Intn(24)
			point := rng.Intn(nd + 2)
			for i := range nd {
				if i == point {
					b = append(b, '.')
				}
				b = append(b, byte('0'+rng.Intn(10)))
			}
			return strings.TrimLeft(string(b), " ")
		}},
		{"near 2^53", func() string {
			d := strconv.FormatUint(1<<53-64+uint64(rng.Intn(128)), 10)
			at := rng.Intn(len(d) + 1)
			return d[:at] + "." + d[at:]
		}},
	}
	const perKind = 200_000
	for _, k := range kinds {
		fast := 0
		for range perKind {
			field := k.field()
			if check(field) {
				fast++
			} else if k.name == "harness" {
				t.Fatalf("harness field %q missed the exact case", field)
			}
		}
		t.Logf("%s: %d of %d fields in the exact case", k.name, fast, perKind)
		if fast == 0 || fast == perKind && k.name != "harness" {
			t.Errorf("%s: %d of %d fields in the exact case, want some and not all", k.name, fast, perKind)
		}
	}
}

// TestWriteCSVWritesPercentG: WriteCSV writes each value in exactly the
// bytes fmt's %g writes, over the values whose spelling changes shape
// (−0, subnormals, the switch to exponents at 1e21 and 1e-5, infinities,
// NaN) and random float64 bit patterns.
func TestWriteCSVWritesPercentG(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e20, 1e21, 1e-7, 1e-5, 1e-4, 123456789, 1.5e300,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1023, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(5))
	for range 5000 {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	var got bytes.Buffer
	if err := WriteCSV(&got, []Series{{Name: "A", Values: vals}, {Name: "B", Values: vals[:3]}}); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, row := range []struct {
		name string
		vals []float64
	}{{"A", vals}, {"B", vals[:3]}} {
		want.WriteString(row.name)
		for _, v := range row.vals {
			fmt.Fprintf(&want, ",%g", v)
		}
		want.WriteByte('\n')
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := strings.Split(got.String(), ","), strings.Split(want.String(), ",")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("cell %d is %q, %%g writes %q", i, g[i], w[i])
			}
		}
		t.Fatalf("%d cells, %%g writes %d", len(g), len(w))
	}
}

// TestWriteCSVValuesRoundTrip: ReadCSV gives back every value WriteCSV
// wrote, bit for bit — −0, subnormals, the extremes, infinities and random
// bit patterns (NaN aside: ParseFloat has one NaN).
func TestWriteCSVValuesRoundTrip(t *testing.T) {
	vals := []float64{math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 0x1p-1023, -0x1.fffffp-1022,
		math.MaxFloat64, -math.MaxFloat64, 1e21, 1e-7, math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(6))
	for len(vals) < 20000 {
		if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	in := []Series{{Name: "A", Values: vals[:10000]}, {Name: "B", Values: vals[10000:]}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadCSV(&buf)
	if diff := sameAnswer(out, err, in, nil); diff != "" {
		t.Fatal(diff)
	}
}

// TestWriteCSVRoundTripsWhatItWrites: WriteCSV writes a name exactly when
// ReadCSV gives it back from the row, over random names drawn from the
// characters that matter (delimiters, '#', ASCII and Unicode spaces, invalid
// UTF-8). The empty name reads back but no store takes it, so it is refused
// too.
func TestWriteCSVRoundTripsWhatItWrites(t *testing.T) {
	if err := WriteCSV(io.Discard, []Series{{Name: "", Values: []float64{1}}}); err == nil {
		t.Error("the empty name was written")
	}
	alphabet := []string{"a", "Z", "7", "-", "é", ",", "\n", "\r", "#", " ", "\t", "\u00a0", "\u0085", "\xff"}
	rng := rand.New(rand.NewSource(7))
	names := []string{"A", "x#", "a b", "a\rb", "#x", "#", " x", "x ", "x\r", "\u00a0x", "a,b", "a\nb"}
	for range 5000 {
		var sb strings.Builder
		for range 1 + rng.Intn(4) {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		names = append(names, sb.String())
	}
	written := 0
	for _, name := range names {
		in := []Series{{Name: name, Values: []float64{1, -2.5}}}
		back, err := readCSV(strings.NewReader(name+",1,-2.5\n"), 64)
		readsBack := sameAnswer(back, err, in, nil) == ""
		var sb strings.Builder
		werr := WriteCSV(&sb, in)
		if (werr == nil) != readsBack {
			t.Fatalf("%q: WriteCSV says %v, but a row with it reads back as itself: %t", name, werr, readsBack)
		}
		if werr != nil {
			continue
		}
		written++
		out, err := readCSV(strings.NewReader(sb.String()), 64)
		if diff := sameAnswer(out, err, in, nil); diff != "" {
			t.Fatalf("%q: %s", name, diff)
		}
	}
	if written < len(names)/10 {
		t.Fatalf("only %d of %d names written", written, len(names))
	}
}

// BenchmarkReadCSV parses 20,000 random walks of length 256 written by
// WriteCSV: at full precision, and rounded to two decimals as in the file
// the benchmark's CSV-loading workloads start from.
func BenchmarkReadCSV(b *testing.B) {
	walks := RandomWalks(20000, 256, 1)
	for _, format := range []struct {
		name  string
		round func(float64) float64
	}{
		{"full", func(v float64) float64 { return v }},
		{"two-decimals", func(v float64) float64 { return math.Round(v*100) / 100 }},
	} {
		b.Run(format.name, func(b *testing.B) {
			series := make([]Series, len(walks))
			for i, w := range walks {
				series[i] = Series{Name: w.Name, Values: make([]float64, len(w.Values))}
				for j, v := range w.Values {
					series[i].Values[j] = format.round(v)
				}
			}
			var buf bytes.Buffer
			if err := WriteCSV(&buf, series); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := ReadCSV(bytes.NewReader(buf.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
