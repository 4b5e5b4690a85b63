package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// WriteCSV emits series one per row: name,v1,v2,...,vn, each value as %g
// writes it (the shortest decimal that reads back as the same bits). It
// refuses a name ReadCSV would not give back: empty, holding a comma or a
// newline, starting with '#' (the row would read back as a comment) or with
// white space at either end (it would read back trimmed).
func WriteCSV(w io.Writer, series []Series) error {
	bw := bufio.NewWriter(w)
	var row []byte
	for _, s := range series {
		if err := writableName(s.Name); err != nil {
			return err
		}
		row = append(row[:0], s.Name...)
		for _, v := range s.Values {
			row = strconv.AppendFloat(append(row, ','), v, 'g', -1, 64)
		}
		if _, err := bw.Write(append(row, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writableName reports why ReadCSV would not give name back, if it would not.
func writableName(name string) error {
	switch {
	case name == "":
		return fmt.Errorf("dataset: empty series name")
	case strings.ContainsAny(name, ",\n"):
		return fmt.Errorf("dataset: name %q contains a delimiter", name)
	case name[0] == '#':
		return fmt.Errorf("dataset: name %q starts with '#', which marks a comment", name)
	case strings.TrimSpace(name) != name:
		return fmt.Errorf("dataset: name %q has white space at an end, which reads back trimmed", name)
	}
	return nil
}

const (
	// blockSize is about how much input one parse worker takes at a time.
	blockSize = 1 << 20
	// maxRow bounds a row (its newline included): the token limit of the
	// bufio.Scanner this reader replaced, so the same rows are refused.
	maxRow = 1 << 24
)

// ReadCSV parses the format written by WriteCSV. Blank lines and lines
// starting with '#' are skipped; white space around a name or a value and a
// "\r" before the newline are dropped. One reader cuts the input into blocks
// of whole lines, GOMAXPROCS workers parse them and the rows join in file
// order, so the rows — and the error, the first one in the file — are the
// same at every GOMAXPROCS. No more blocks are held than there are workers.
func ReadCSV(r io.Reader) ([]Series, error) { return readCSV(r, blockSize) }

// readCSV is ReadCSV cutting blocks of about size bytes.
func readCSV(r io.Reader, size int) ([]Series, error) {
	workers := runtime.GOMAXPROCS(0)
	work := make(chan *block)
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for b := range work {
				b.parse()
				close(b.done)
			}
		}()
	}
	defer func() {
		close(work)
		wg.Wait()
	}()

	var (
		rows    [][]Series
		pending []*block // sent to the workers, in file order
		spare   []byte   // the buffer of the last block joined, for the next cut
	)
	join := func() error {
		b := pending[0]
		pending = pending[1:]
		<-b.done
		rows, spare = append(rows, b.rows), b.buf[:0]
		return b.err
	}
	c := cutter{r: r, size: size, line: 1}
	for {
		if len(pending) == workers {
			if err := join(); err != nil {
				return nil, err
			}
		}
		b := c.next(spare)
		if b == nil {
			break
		}
		spare = nil
		pending = append(pending, b)
		work <- b
	}
	for len(pending) > 0 {
		if err := join(); err != nil {
			return nil, err
		}
	}
	if c.err != io.EOF {
		return nil, c.err
	}
	return slices.Concat(rows...), nil
}

// block is a run of whole lines and what parsing them gave.
type block struct {
	buf  []byte // the lines; the last lacks its newline only at the end of the input
	line int    // number of the first line
	rows []Series
	err  error
	done chan struct{} // closed once rows and err are set
}

// parse parses the block's lines in order, stopping at the first error.
func (b *block) parse() {
	line := b.line
	for raw := range bytes.Lines(b.buf) {
		s, ok, err := parseRow(raw, line)
		if err != nil {
			b.err = err
			return
		}
		if ok {
			b.rows = append(b.rows, s)
		}
		line++
	}
}

// parseRow parses line number lineNo; ok is false for a blank line or a
// comment. A row allocates its name and its values and nothing else. A
// field parseDecimal takes is read in one pass; any other goes to
// strconv.ParseFloat trimmed, so every field gives ParseFloat's value bits
// or its error.
func parseRow(raw []byte, lineNo int) (s Series, ok bool, err error) {
	line := bytes.TrimSpace(raw)
	if len(line) == 0 || line[0] == '#' {
		return Series{}, false, nil
	}
	comma := bytes.IndexByte(line, ',')
	if comma < 0 {
		return Series{}, false, fmt.Errorf("dataset: line %d: need a name and at least one value", lineNo)
	}
	vals := make([]float64, bytes.Count(line[comma:], []byte{','}))
	p := comma + 1
	for i := range vals {
		v, end, ok := parseDecimal(line, p)
		if !ok {
			end = len(line)
			if j := bytes.IndexByte(line[p:], ','); j >= 0 {
				end = p + j
			}
			if v, err = strconv.ParseFloat(string(bytes.TrimSpace(line[p:end])), 64); err != nil {
				return Series{}, false, fmt.Errorf("dataset: line %d field %d: %v", lineNo, i+2, err)
			}
		}
		vals[i] = v
		p = end + 1
	}
	return Series{Name: string(bytes.TrimSpace(line[:comma])), Values: vals}, true, nil
}

// pow10 holds 10^0 … 10^22: every power of ten a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseDecimal reads the field at line[p:] when it is [+-]?digits[.digits],
// with at least one digit, ending at a comma or at the end of the line, and
// its digits, the point ignored, are an integer m ≤ 2^53 with k ≤ 22 of them
// after the point. Then float64(m) and 10^k are exact and the division
// rounds once, so v = m / 10^k is the correctly rounded value, the bits
// strconv.ParseFloat gives (Clinger's exact case). end is the index of the
// comma ending the field, or len(line). Any other field, white space and
// exponents included, gives ok false and is left to ParseFloat.
func parseDecimal(line []byte, p int) (v float64, end int, ok bool) {
	i, neg := p, false
	if i < len(line) && (line[i] == '-' || line[i] == '+') {
		neg, i = line[i] == '-', i+1
	}
	var m uint64
	digits, point := 0, -1 // point: digits before the '.', -1 without one
	for ; i < len(line) && line[i] != ','; i++ {
		switch c := line[i]; {
		case c-'0' < 10:
			// m ≤ 2^53 before the step, so m·10 + 9 does not overflow.
			if m = m*10 + uint64(c-'0'); m > 1<<53 {
				return 0, 0, false
			}
			digits++
		case c == '.' && point < 0:
			point = digits
		default:
			return 0, 0, false
		}
	}
	k := 0
	if point >= 0 {
		k = digits - point
	}
	if digits == 0 || k >= len(pow10) {
		return 0, 0, false
	}
	v = float64(m) / pow10[k]
	if neg {
		v = -v
	}
	return v, i, true
}

// cutter reads the input a block of whole lines at a time.
type cutter struct {
	r    io.Reader
	size int    // the least buffer a block is read into
	rest []byte // the partial line after the last block's final newline
	line int    // number of the next block's first line
	err  error  // why the input ended: io.EOF, a read error or bufio.ErrTooLong
}

// next reads the next block into buf's memory (a fresh buffer if it is too
// small), or returns nil once the input has ended. A block ends at the last
// newline read; the partial line after it starts the next block. At the end
// of the input the block takes what is left, as bufio.Scanner's last token
// does, after a read error too; a row of maxRow bytes or more ends the input
// with bufio.ErrTooLong before it.
func (c *cutter) next(buf []byte) *block {
	if c.err != nil {
		return nil
	}
	if want := max(c.size, min(2*len(c.rest), maxRow)); cap(buf) < want {
		buf = make([]byte, 0, want)
	}
	// copy, not append: with one worker the rest may lie in buf itself.
	buf = buf[:copy(buf[:cap(buf)], c.rest)]
	c.rest = nil
	for {
		for len(buf) < cap(buf) && c.err == nil {
			n, err := c.r.Read(buf[len(buf):cap(buf)])
			buf, c.err = buf[:len(buf)+n], err
		}
		if c.err != nil {
			return c.cut(buf)
		}
		if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
			c.rest = buf[i+1:]
			return c.cut(buf[:i+1])
		}
		if len(buf) == maxRow {
			c.err = bufio.ErrTooLong
			return nil
		}
		buf = append(make([]byte, 0, min(2*len(buf), maxRow)), buf...)
	}
}

// cut makes the next block of lines, nil if there are none.
func (c *cutter) cut(lines []byte) *block {
	if len(lines) == 0 {
		return nil
	}
	n := bytes.Count(lines, []byte{'\n'})
	b := &block{buf: lines, line: c.line, rows: make([]Series, 0, n+1), done: make(chan struct{})}
	c.line += n
	return b
}
