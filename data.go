package tsq

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/series"
)

// NamedSeries pairs a series name with its values.
type NamedSeries struct {
	Name   string
	Values []float64
}

// RandomWalks generates count synthetic random-walk series of the given
// length using the paper's model (Section 5): start value in [20, 99],
// steps in [-4, 4]. Deterministic for a fixed seed.
func RandomWalks(count, length int, seed int64) []NamedSeries {
	return convert(dataset.RandomWalks(count, length, seed))
}

// StockEnsemble generates the stock-like data set substituting for the
// paper's 1067x128 stock relation: twelve pairs similar under the 20-day
// moving average at threshold StockEnsembleEps, three of which are similar
// even without it, plus four opposite-movement pairs (dataset.StockLike
// documents how they are planted).
func StockEnsemble(seed int64) []NamedSeries {
	return convert(dataset.DefaultStockEnsemble(seed).Series)
}

// StockEnsembleEps is the range threshold under which StockEnsemble's
// planted pair structure holds exactly.
const StockEnsembleEps = 1.0

func convert(in []dataset.Series) []NamedSeries {
	out := make([]NamedSeries, len(in))
	for i, s := range in {
		out[i] = NamedSeries{Name: s.Name, Values: s.Values}
	}
	return out
}

// Tick is one streamed append: a point arriving on a named series at a
// step index (the stream's logical timestamp).
type Tick struct {
	Name  string
	Step  int
	Value float64
}

// StreamTicks generates the streaming companion of RandomWalks: count
// random walks whose first length values form the initial windows and
// whose next steps values arrive as appends. Ticks are emitted in arrival
// order — step-major round-robin across the series, the interleaving a
// live feed produces. Benchmarks, examples, and `tsqgen -stream` all draw
// from this one generator, so a data set and its live continuation always
// agree. Deterministic for a fixed seed.
func StreamTicks(count, length, steps int, seed int64) ([]NamedSeries, []Tick) {
	walks := RandomWalks(count, length+steps, seed)
	initial := make([]NamedSeries, count)
	for i, w := range walks {
		initial[i] = NamedSeries{Name: w.Name, Values: w.Values[:length]}
	}
	ticks := make([]Tick, 0, count*steps)
	for step := 0; step < steps; step++ {
		for _, w := range walks {
			ticks = append(ticks, Tick{Name: w.Name, Step: step, Value: w.Values[length+step]})
		}
	}
	return initial, ticks
}

// WriteTicksCSV writes ticks as CSV rows of the form "name,step,value".
func WriteTicksCSV(w io.Writer, ticks []Tick) error {
	bw := bufio.NewWriter(w)
	for _, t := range ticks {
		if _, err := fmt.Fprintf(bw, "%s,%d,%s\n", t.Name, t.Step, strconv.FormatFloat(t.Value, 'g', -1, 64)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTicksCSV loads ticks from CSV rows of the form "name,step,value".
// Blank lines and lines starting with '#' are skipped.
func ReadTicksCSV(r io.Reader) ([]Tick, error) {
	var out []Tick
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("tsq: ticks line %d: want name,step,value", line)
		}
		step, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("tsq: ticks line %d: bad step %q", line, parts[1])
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("tsq: ticks line %d: bad value %q", line, parts[2])
		}
		out = append(out, Tick{Name: strings.TrimSpace(parts[0]), Step: step, Value: v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadTicksCSVFile loads ticks from a CSV file, rejecting an empty stream.
func ReadTicksCSVFile(path string) ([]Tick, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ticks, err := ReadTicksCSV(f)
	if err != nil {
		return nil, err
	}
	if len(ticks) == 0 {
		return nil, fmt.Errorf("tsq: no ticks in %s", path)
	}
	return ticks, nil
}

// InsertAll inserts a batch of named series, stopping at the first error.
func (db *DB) InsertAll(batch []NamedSeries) error {
	for _, s := range batch {
		if err := db.Insert(s.Name, s.Values); err != nil {
			return err
		}
	}
	return nil
}

// ReadCSV loads series from CSV rows of the form "name,v1,v2,...".
// Blank lines and lines starting with '#' are skipped.
func ReadCSV(r io.Reader) ([]NamedSeries, error) {
	in, err := dataset.ReadCSV(r)
	if err != nil {
		return nil, err
	}
	return convert(in), nil
}

// ReadCSVFile loads series from a CSV file, rejecting an empty data set —
// the loading path shared by the tsqcli and tsqd commands.
func ReadCSVFile(path string) ([]NamedSeries, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	batch, err := ReadCSV(f)
	if err != nil {
		return nil, err
	}
	if len(batch) == 0 {
		return nil, fmt.Errorf("tsq: no series in %s", path)
	}
	return batch, nil
}

// WriteCSV writes series as CSV rows of the form "name,v1,v2,...". It
// refuses a name ReadCSV would not give back: empty, holding a comma or a
// newline, starting with '#' or with white space at either end.
func WriteCSV(w io.Writer, batch []NamedSeries) error {
	out := make([]dataset.Series, len(batch))
	for i, s := range batch {
		out[i] = dataset.Series{Name: s.Name, Values: s.Values}
	}
	return dataset.WriteCSV(w, out)
}

// NormalForm returns the normal form of a series (paper Equation 9, after
// Goldin & Kanellakis): subtract the mean, divide by the standard
// deviation. All query distances are computed between (transformed)
// normal forms.
func NormalForm(s []float64) []float64 { return series.NormalForm(s) }

// normalForm is the internal alias used by Distance.
func normalForm(s []float64) []float64 { return series.NormalForm(s) }

// MovingAverageSeries returns the l-day circular moving average of a raw
// series — the time-domain counterpart of the MovingAverage transform,
// handy for plotting and for verifying transformations by hand.
func MovingAverageSeries(s []float64, l int) []float64 {
	return series.MovingAverageCircular(s, l)
}

// EuclideanDistance returns the plain Euclidean distance between two
// equal-length series.
func EuclideanDistance(x, y []float64) float64 {
	return series.EuclideanDistance(x, y)
}
