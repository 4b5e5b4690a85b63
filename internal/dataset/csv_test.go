package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
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
	f.Fuzz(func(t *testing.T, data []byte, size uint8) {
		want, wantErr := lineReader(bytes.NewReader(data))
		got, err := readCSV(bytes.NewReader(data), 1+int(size)%64)
		if diff := sameAnswer(got, err, want, wantErr); diff != "" {
			t.Fatalf("blocks of %d: %s", 1+int(size)%64, diff)
		}
	})
}

// TestParseRowAllocs: a row costs its name and its values slice, nothing
// more — no line string, no field slice, no per-field string.
func TestParseRowAllocs(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(" W00042 ")
	for _, v := range RandomWalk(rand.New(rand.NewSource(1)), 256) {
		fmt.Fprintf(&sb, ", %g", v)
	}
	sb.WriteString("\r\n")
	row := []byte(sb.String())
	if a := testing.AllocsPerRun(100, func() {
		if _, ok, err := parseRow(row, 1); !ok || err != nil {
			t.Fatal(ok, err)
		}
	}); a > 2 {
		t.Errorf("parsing a 256-value row: %.1f allocs, want <= 2 (its name and its values)", a)
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
// WriteCSV: the file the benchmark's CSV-loading workloads start from.
func BenchmarkReadCSV(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, RandomWalks(20000, 256, 1)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ReadCSV(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
