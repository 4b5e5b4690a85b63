// Package flight is the correlated flight recorder: request-ID minting
// and a bounded tail-sampled trace store. Where the telemetry registry
// aggregates (a histogram bucket says *that* something was slow), the
// recorder retains exemplars (*which* request was slow, with its full
// span tree) — decided after execution, when the outcome is known, which
// is what tail sampling means. Retention is strictly bounded: per
// {kind, strategy} bucket the most-recent-N and slowest-N entries, plus
// a global ring of every error trace, so a recorder on a hot server
// holds a fixed few hundred entries no matter the traffic.
//
// The package is dependency-free and generic over the span payload so it
// sits below the public tsq layer (which instantiates Recorder with its
// own span type) without an import cycle.
package flight

import (
	"crypto/rand"
	"encoding/hex"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// idPrefix is a per-process random nonce, so IDs from restarted or
// concurrent processes never collide; idSeq disambiguates within the
// process.
var (
	idPrefix string
	idSeq    atomic.Uint64
)

func init() {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; here a
		// fixed prefix only weakens cross-process uniqueness.
		copy(b[:], "tsq0")
	}
	idPrefix = hex.EncodeToString(b[:])
}

// NewID mints a request ID: a process nonce plus a sequence number,
// e.g. "f3a9c1b2-2f". Cheap (one atomic add, one small allocation) and
// unique across processes with overwhelming probability.
func NewID() string {
	return idPrefix + "-" + strconv.FormatUint(idSeq.Add(1), 36)
}

// Outcome values of an Entry.
const (
	OutcomeOK     = "ok"
	OutcomeError  = "error"
	OutcomeCached = "cached"
)

// Entry is one retained execution: its correlation ID, classification,
// timing, and span payload. S is the caller's span-tree type.
type Entry[S any] struct {
	// ID is the request's correlation ID (see NewID), the join key
	// against responses and a failed request's log line.
	ID string
	// Kind is the query kind ("range", "nn", "selfjoin", ...); Strategy
	// the resolved execution strategy ("" for unplanned paths).
	Kind     string
	Strategy string
	// Outcome is "ok", "error", or "cached".
	Outcome string
	// Query is the statement text or cache key.
	Query string
	// Err is the error message of error outcomes.
	Err     string
	When    time.Time
	Elapsed time.Duration
	Spans   S
}

// The recorder's bounds. A recorder holds at most
// maxBuckets×(recentN+slowestN)+errorN entries whatever the traffic.
const (
	// recentN is the most-recent ring depth per {kind, strategy} bucket.
	recentN = 8
	// slowestN is the slowest-list depth per bucket.
	slowestN = 8
	// errorN is the global error ring depth.
	errorN = 64
	// maxBuckets bounds the number of {kind, strategy} buckets;
	// observations for new buckets beyond it are dropped (errors still
	// land in the error ring).
	maxBuckets = 64
)

// bucket retains one {kind, strategy}'s exemplars: a fixed-size
// most-recent ring (value assignment into preallocated backing — no
// steady-state allocation) and a slowest list kept sorted by Elapsed
// descending.
type bucket[S any] struct {
	kind, strategy string
	recent         []Entry[S] // ring, len == cap once warm
	pos            int        // next ring write position
	slow           []Entry[S] // sorted by Elapsed desc, len <= slowestN
}

// Recorder is the bounded tail-sampling store. All methods are safe for
// concurrent use; Observe takes one short mutex hold (the store is
// fixed-size, so the critical section is a few comparisons and value
// copies).
type Recorder[S any] struct {
	mu      sync.Mutex
	buckets map[string]*bucket[S]
	errs    []Entry[S] // ring, oldest overwritten
	errPos  int
}

// NewRecorder builds an empty Recorder.
func NewRecorder[S any]() *Recorder[S] {
	return &Recorder[S]{buckets: make(map[string]*bucket[S])}
}

// Observe retains one completed execution: into its {kind, strategy}
// bucket's recent ring always, into the slowest list when it qualifies,
// and into the error ring when the outcome is an error.
func (r *Recorder[S]) Observe(e Entry[S]) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.Outcome == OutcomeError {
		if len(r.errs) < errorN {
			r.errs = append(r.errs, e)
		} else {
			r.errs[r.errPos] = e
			r.errPos = (r.errPos + 1) % errorN
		}
		return
	}
	key := e.Kind + "\x00" + e.Strategy
	b := r.buckets[key]
	if b == nil {
		if len(r.buckets) >= maxBuckets {
			return
		}
		b = &bucket[S]{
			kind:     e.Kind,
			strategy: e.Strategy,
			recent:   make([]Entry[S], 0, recentN),
		}
		r.buckets[key] = b
	}
	if len(b.recent) < cap(b.recent) {
		b.recent = append(b.recent, e)
	} else {
		b.recent[b.pos] = e
		b.pos = (b.pos + 1) % cap(b.recent)
	}
	// Slowest list: insert in order when it qualifies; the list is tiny
	// (slowestN), so a linear pass is the whole cost.
	if len(b.slow) < slowestN || e.Elapsed > b.slow[len(b.slow)-1].Elapsed {
		i := sort.Search(len(b.slow), func(i int) bool { return b.slow[i].Elapsed < e.Elapsed })
		if len(b.slow) < slowestN {
			b.slow = append(b.slow, Entry[S]{})
		}
		copy(b.slow[i+1:], b.slow[i:])
		b.slow[i] = e
	}
}

// Filter selects retained entries. Zero fields match everything.
type Filter struct {
	// ID selects one entry by request ID.
	ID string
	// Kind, Strategy, and Outcome narrow by classification.
	Kind     string
	Strategy string
	Outcome  string
	// N bounds the result count (0 = no bound).
	N int
}

func matchEntry[S any](f Filter, e Entry[S]) bool {
	if f.ID != "" && e.ID != f.ID {
		return false
	}
	if f.Kind != "" && e.Kind != f.Kind {
		return false
	}
	if f.Strategy != "" && e.Strategy != f.Strategy {
		return false
	}
	if f.Outcome != "" && e.Outcome != f.Outcome {
		return false
	}
	return true
}

// Traces returns the retained entries matching f, newest first,
// deduplicated by request ID (an entry can sit in both a recent ring and
// a slowest list).
func (r *Recorder[S]) Traces(f Filter) []Entry[S] {
	r.mu.Lock()
	all := make([]Entry[S], 0, 64)
	for _, b := range r.buckets {
		all = append(all, b.recent...)
		all = append(all, b.slow...)
	}
	all = append(all, r.errs...)
	r.mu.Unlock()

	sort.SliceStable(all, func(i, j int) bool { return all[i].When.After(all[j].When) })
	seen := make(map[string]bool, len(all))
	out := all[:0]
	for _, e := range all {
		if seen[e.ID] || !matchEntry(f, e) {
			continue
		}
		seen[e.ID] = true
		out = append(out, e)
		if f.N > 0 && len(out) >= f.N {
			break
		}
	}
	return out
}

// Get returns the retained entry with the given request ID.
func (r *Recorder[S]) Get(id string) (Entry[S], bool) {
	es := r.Traces(Filter{ID: id, N: 1})
	if len(es) == 0 {
		var zero Entry[S]
		return zero, false
	}
	return es[0], true
}

// Worst describes one bucket's slowest retained observation — the link
// from a latency histogram family (kind, strategy) to a fetchable trace.
type Worst struct {
	Kind     string
	Strategy string
	ID       string
	Elapsed  time.Duration
	When     time.Time
}

// WorstRecent returns, per {kind, strategy} bucket, the slowest retained
// entry, sorted by kind then strategy.
func (r *Recorder[S]) WorstRecent() []Worst {
	r.mu.Lock()
	out := make([]Worst, 0, len(r.buckets))
	for _, b := range r.buckets {
		if len(b.slow) == 0 {
			continue
		}
		e := b.slow[0]
		out = append(out, Worst{Kind: b.kind, Strategy: b.strategy, ID: e.ID, Elapsed: e.Elapsed, When: e.When})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Strategy < out[j].Strategy
	})
	return out
}
