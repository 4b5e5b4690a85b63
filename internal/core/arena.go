package core

import (
	"sync"

	"repro/internal/index"
)

// execArena is the reusable working memory of one hot-path query
// execution: the batch index scratch, the candidate-ID and page-view
// buffers the verification loop cycles through, the NN visitor state, and
// a private top-k set. Arenas live in a process-wide pool; an execution
// borrows one, runs entirely inside it, copies answers out into the
// caller's result slice (results hold only value types — int64, string
// header, float64 — so nothing aliases arena memory), and returns it.
// Steady state, a planned one-shard execution allocates nothing.
//
// An arena is never shared: each borrower owns it exclusively between
// getArena and putArena, which is what makes the buffers race-free under
// concurrent queries (each goroutine borrows its own).
type execArena struct {
	sc    index.Scratch
	ids   []int64
	pages [][]byte
	top   topK
	nv    nnVisit
	nc    nearCounter
	// st is the execution's stats accumulator. It lives in the arena
	// because the NN visitor (also arena-held) keeps a pointer to it — a
	// stack-local ExecStats would escape and cost one heap allocation per
	// query. Callers receive a value copy; resetStats drops the old copy's
	// slice references before reuse.
	st ExecStats
}

// resetStats clears and returns the arena's stats accumulator for a fresh
// execution.
func (ar *execArena) resetStats() *ExecStats {
	ar.st = ExecStats{}
	return &ar.st
}

var arenaPool = sync.Pool{New: func() any { return new(execArena) }}

func getArena() *execArena { return arenaPool.Get().(*execArena) }

func putArena(ar *execArena) {
	// Drop object references before pooling: retained capacity is the
	// point (that is what makes reuse allocation-free), but stale pointers
	// into a closed store's pages or a finished query's visitor state must
	// not pin those objects for the pool's lifetime.
	ar.nv = nnVisit{}
	ar.st = ExecStats{}
	pages := ar.pages[:cap(ar.pages)]
	for i := range pages {
		pages[i] = nil
	}
	ar.pages = ar.pages[:0]
	arenaPool.Put(ar)
}
