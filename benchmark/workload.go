package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// spec describes one workload: the store it runs against, who drives it,
// and the operation mix. The names and reasons are fixed by BENCHMARK.json;
// -list prints them and a test holds the two together.
type spec struct {
	name string
	why  string
	// Store shape.
	count, length, shards int
	// child: the store lives in a tsqd child process reached over HTTP;
	// otherwise in an in-process tsq.Server.
	child bool
	// cache: the Server result cache keeps its default 256 entries;
	// otherwise it is disabled.
	cache bool
	// disk: the store is adopted from a TSQ3 snapshot into a backing
	// directory whose buffer pool holds a quarter of the pages.
	disk bool
	// statements: reads are query-language text through POST /query;
	// otherwise typed requests.
	statements bool
	// zipfNames draws query names Zipf(1); otherwise uniformly.
	zipfNames bool
	// readsPerRound is the fixed length of the replayed read list.
	readsPerRound int
	// appendRate is the open-loop append schedule in appends per second
	// (0: read-only); monitors is how many standing range queries are
	// registered during set-up, each with one subscriber, and monitorEps
	// their radius. A monitor's query is frozen at registration while the
	// windows slide on, so a tight radius is crossed once and never again;
	// this one runs through the bulk of the stored series, where every
	// append has a chance of carrying its series across it.
	appendRate float64
	monitors   int
	monitorEps float64
	// setups is how many consecutive set-ups a run times; setup_s is
	// their median and the last one is kept and measured.
	setups int
	// classes is the read mix. Each class gets exactly its share of the
	// list (not a random draw of it): how many scans or NN queries a
	// round holds must not vary with the seed, or every percentile of a
	// mixed kind would move with the mixture and not with the program.
	classes []class
}

// class is one kind of read and its share of the list.
type class struct {
	share float64
	op    op
	// raw is the share of the class issued as a perturbed raw vector
	// instead of by name: the program must then normalise, FFT and
	// extract features per query.
	raw float64
}

// appendPoints is how many points one append slides a window by.
const appendPoints = 4

var specs = []spec{
	{
		name:  "http-selective",
		why:   "Selective by-name statements over HTTP with a skewed, cacheable name mix: parse, plan, cache and JSON dominate and the kernels do almost nothing.",
		count: 20000, length: 256, shards: 1,
		child: true, cache: true, statements: true, zipfNames: true,
		readsPerRound: 8000,
		setups:        3,
		classes: []class{
			{share: 0.70, op: op{kind: opRange, eps: 1}},
			{share: 0.20, op: op{kind: opRange, eps: 1, mavg: 20}},
			{share: 0.10, op: op{kind: opNN, k: 3}},
		},
	},
	{
		name:  "engine-heavy",
		why:   "Never-repeating wide NN, range and scan queries in process with the cache off: traversal, page fetch and verification are nearly all of the time and the front end none.",
		count: 20000, length: 256, shards: 1,
		readsPerRound: 1500,
		setups:        5,
		classes: []class{
			{share: 0.40, raw: 0.5, op: op{kind: opNN, k: 10, using: "index"}},
			{share: 0.30, raw: 0.5, op: op{kind: opRange, eps: 4, using: "index"}},
			{share: 0.20, raw: 0.5, op: op{kind: opRange, eps: 2, mavg: 20, using: "index"}},
			{share: 0.10, raw: 0.5, op: op{kind: opRange, eps: 2, using: "scan"}},
		},
	},
	{
		name:  "stream-mixed",
		why:   "Reads beside a fixed-rate append stream on a 4-shard tsqd with standing monitors: sliding-DFT appends, index moves, cache invalidation, per-shard locks and fan-out all run at once.",
		count: 5000, length: 256, shards: 4,
		child: true, cache: true, zipfNames: true,
		readsPerRound: 3000,
		appendRate:    400,
		monitors:      32,
		monitorEps:    8,
		setups:        5,
		classes: []class{
			{share: 0.50, op: op{kind: opRange, eps: 1}},
			{share: 0.25, op: op{kind: opNN, k: 5, using: "index"}},
			{share: 0.25, op: op{kind: opRange, eps: 2}},
		},
	},
	{
		name:  "disk-pool25",
		why:   "The same store adopted from a snapshot onto disk behind a buffer pool a quarter its size, uniform names: the only working set larger than the program's own cache, so page fetch and eviction dominate.",
		count: 20000, length: 256, shards: 1,
		disk: true,
		// How many candidates a wide read meets depends on where its
		// subject lies among the others, so the work in a list varies with
		// the seed; at 900 reads it varied by 13 % between two seeds.
		readsPerRound: 1800,
		setups:        5,
		classes: []class{
			{share: 0.70, op: op{kind: opRange, eps: 2, using: "index"}},
			{share: 0.30, op: op{kind: opNN, k: 10, using: "index"}},
		},
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled shrinks a workload for -smoke and the tests: a hundredth of the
// store and of the reads, with floors that keep every op kind present.
func (s spec) scaled(div int) spec {
	if div <= 1 {
		return s
	}
	s.count = max(s.count/div/familySize*familySize, 40*familySize)
	s.readsPerRound = max(s.readsPerRound/div, 60)
	return s
}

// inputs is everything one run generates from its seed.
type inputs struct {
	data  *dataset
	reads []op
	// popular ranks series by Zipf popularity: query names on the skewed
	// workloads, monitor subjects and append targets when streaming.
	popular *zipf
	// ticks drives the measured phase's append stream, traceTicks the
	// traced passes' (kept apart: how many appends the measured phase
	// sends depends on timing).
	ticks, traceTicks *rand.Rand
}

// generate makes a run's inputs. Independent streams are seeded from the
// run seed so that lengthening one list does not shift another.
func generate(s spec, seed int64) *inputs {
	in := &inputs{data: genData(s, seed)}
	rng := rand.New(rand.NewSource(seed ^ 0x5ee0))
	in.popular = newZipf(rand.New(rand.NewSource(seed^0x21bf)), s.count)
	pick := func() int { return rng.Intn(s.count) }
	if s.zipfNames {
		pick = func() int { return in.popular.draw(rng) }
	}
	in.reads = s.draw(rng, pick, in.data, s.readsPerRound)
	if s.appendRate > 0 {
		// Reads past readsPerRound are the checks issued after the append
		// stream has stopped.
		in.reads = append(in.reads, s.draw(rand.New(rand.NewSource(seed^0x0f1a)), pick, in.data, finalChecks)...)
	}
	in.ticks = rand.New(rand.NewSource(seed ^ 0x71c5))
	in.traceTicks = rand.New(rand.NewSource(seed ^ 0x3d09))
	return in
}

// genData makes a run's stored series: a function of the seed alone, so a
// host that has no use for the values while it is measured can drop them
// and have them again for the oracle.
func genData(s spec, seed int64) *dataset {
	return genWalks(rand.New(rand.NewSource(seed)), s.count, s.length)
}

// draw makes a list of n reads holding each class in exactly its share,
// in seeded random order, with seeded query subjects.
func (s spec) draw(rng *rand.Rand, pick func() int, d *dataset, n int) []op {
	out := make([]op, 0, n)
	for ci, c := range s.classes {
		count := int(c.share*float64(n) + 0.5)
		if ci == len(s.classes)-1 {
			count = n - len(out)
		}
		nraw := int(c.raw*float64(count) + 0.5)
		for i := 0; i < count; i++ {
			o := c.op
			o.series = pick()
			if i < nraw {
				o.values = perturb(rng, d.values[o.series], 0.05)
				o.series = -1
			}
			out = append(out, o)
		}
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// statement renders a read as query-language text.
func statement(d *dataset, o *op) string {
	var b strings.Builder
	if o.kind == opNN {
		b.WriteString("NN ")
	} else {
		b.WriteString("RANGE ")
	}
	if o.values != nil {
		b.WriteString("VALUES (")
		for i, v := range o.values {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(v, 'f', -1, 64))
		}
		b.WriteByte(')')
	} else {
		fmt.Fprintf(&b, "SERIES '%s'", d.names[o.series])
	}
	if o.kind == opNN {
		fmt.Fprintf(&b, " K %d", o.k)
	} else {
		fmt.Fprintf(&b, " EPS %s", strconv.FormatFloat(o.eps, 'f', -1, 64))
	}
	if o.mavg > 0 {
		fmt.Fprintf(&b, " TRANSFORM mavg(%d) BOTH", o.mavg)
	}
	if o.using != "" {
		b.WriteString(" USING " + strings.ToUpper(o.using))
	}
	return b.String()
}

// queryValues is the raw series a read compares against.
func queryValues(d *dataset, o *op) []float64 {
	if o.values != nil {
		return o.values
	}
	return d.values[o.series]
}
