package pagefile

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// frame is one buffer-pool slot: a cached page plus its replacement
// state. The frame owns a pageSize buffer that is refilled on every miss,
// which is why readers pin frames for the duration of use.
type frame struct {
	page int  // page index currently cached, -1 if empty
	ref  bool // clock reference bit: set on access, cleared by the sweep
	pin  int  // active ViewInto readers; pinned frames are never evicted
	buf  []byte
}

// BufferPool caches pages of a Backing with clock (second-chance)
// eviction. A hit serves the page without charging the backing's read
// counter; a miss charges one physical read and caches the page —
// reproducing the buffer-pool effect the paper's experiments assumed when
// counting disk accesses. Over a DiskFile the pool is what makes
// larger-than-RAM stores workable: only about capacity pages are resident
// at once.
//
// The 1997 system ran over a real buffer manager; with the paper's 1067 x
// 128 relation occupying ~2 MB, its nested-loop joins mostly hit the pool
// after the first pass. The buffer-pool ablation quantifies exactly that:
// logical page requests vs physical reads.
//
// Pinning: ViewInto pins every page of the record and the views stay valid
// until the matching Release; pinned frames are never chosen for eviction.
// If every frame is pinned when a miss needs a victim, the pool temporarily
// overflows capacity rather than failing — residency is bounded by capacity
// plus the peak number of concurrently pinned pages.
//
// BufferPool is safe for concurrent reads; Overwrite requires the same
// external write synchronization as the backing itself.
type BufferPool struct {
	backing  Backing
	capacity int

	mu sync.Mutex
	// frames and clock are sized to the capacity at the first fault, so a
	// pool nothing has read yet — a store being loaded — holds no table.
	frames map[int]*frame // page index -> resident frame
	clock  []*frame
	hand   int
	pinned int // total outstanding pin references

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// NewBufferPool wraps a backing with a pool holding up to capacity pages.
func NewBufferPool(b Backing, capacity int) (*BufferPool, error) {
	if b == nil {
		return nil, fmt.Errorf("pagefile: buffer pool needs a backing")
	}
	if capacity < 1 {
		return nil, fmt.Errorf("pagefile: buffer pool capacity must be >= 1, got %d", capacity)
	}
	return &BufferPool{backing: b, capacity: capacity}, nil
}

// Capacity returns the pool's page capacity.
func (bp *BufferPool) Capacity() int { return bp.capacity }

// Backing returns the storage underneath the pool.
func (bp *BufferPool) Backing() Backing { return bp.backing }

// HitsMisses returns the accumulated hit and miss counts.
func (bp *BufferPool) HitsMisses() (hits, misses int64) {
	return bp.hits.Load(), bp.misses.Load()
}

// Evictions returns the number of cached pages displaced to make room.
func (bp *BufferPool) Evictions() int64 { return bp.evictions.Load() }

// Resident returns the number of pages currently cached.
func (bp *BufferPool) Resident() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.frames)
}

// Pinned returns the total number of outstanding pin references.
func (bp *BufferPool) Pinned() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.pinned
}

// ResetStats zeroes the hit/miss/eviction counters.
func (bp *BufferPool) ResetStats() {
	bp.hits.Store(0)
	bp.misses.Store(0)
	bp.evictions.Store(0)
}

// page returns the cached contents of page i, faulting it in on a miss,
// and raises the frame's pin count: the caller must release it.
func (bp *BufferPool) page(i int) ([]byte, error) {
	if i < 0 || i >= bp.backing.NumPages() {
		return nil, fmt.Errorf("pagefile: page %d out of range of %d pages", i, bp.backing.NumPages())
	}
	bp.mu.Lock()
	if f, ok := bp.frames[i]; ok {
		f.ref = true
		f.pin++
		bp.pinned++
		buf := f.buf // read under the lock: a fault may recycle the frame
		bp.mu.Unlock()
		bp.hits.Add(1)
		return buf, nil
	}
	f := bp.victimLocked()
	// Fault the page in while holding the pool lock: concurrent misses on
	// the same page stay coherent (exactly one frame per page) at the cost
	// of serialising faults. Per-frame latches are the upgrade path if
	// fault concurrency ever matters more than simplicity here.
	buf, err := bp.backing.ReadPage(i, f.buf[:0])
	if err != nil {
		f.page = -1
		bp.mu.Unlock()
		return nil, err
	}
	f.buf = buf
	f.page = i
	f.ref = true
	f.pin = 1
	bp.pinned++
	bp.frames[i] = f
	bp.mu.Unlock()
	bp.misses.Add(1)
	return buf, nil
}

// victimLocked returns a free frame, evicting an unpinned page via the
// clock sweep when the pool is full. Called with bp.mu held.
func (bp *BufferPool) victimLocked() *frame {
	if bp.frames == nil {
		bp.frames = make(map[int]*frame, bp.capacity)
		bp.clock = make([]*frame, 0, bp.capacity)
	}
	if len(bp.clock) < bp.capacity {
		f := bp.newFrame()
		bp.clock = append(bp.clock, f)
		return f
	}
	// Second-chance sweep: two full passes guarantee an unpinned frame is
	// found if one exists (the first pass may only clear reference bits).
	for sweep := 0; sweep < 2*len(bp.clock); sweep++ {
		f := bp.clock[bp.hand]
		bp.hand = (bp.hand + 1) % len(bp.clock)
		if f.pin > 0 {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		if f.page >= 0 {
			delete(bp.frames, f.page)
			bp.evictions.Add(1)
		}
		return f
	}
	// Every frame is pinned: overflow past capacity instead of failing.
	f := bp.newFrame()
	bp.clock = append(bp.clock, f)
	return f
}

func (bp *BufferPool) newFrame() *frame {
	return &frame{page: -1, buf: make([]byte, 0, bp.backing.PageSize())}
}

// release drops one pin reference on page i. No-op for pages that hold no
// pin (robust against double release). When
// the pool has overflowed capacity (every frame was pinned at some miss),
// fully released frames are retired immediately so residency shrinks back
// to capacity.
func (bp *BufferPool) release(i int) {
	bp.mu.Lock()
	if f, ok := bp.frames[i]; ok && f.pin > 0 {
		f.pin--
		bp.pinned--
		if f.pin == 0 && len(bp.clock) > bp.capacity {
			bp.retireLocked(f)
		}
	}
	bp.mu.Unlock()
}

// retireLocked evicts f and removes its frame from the clock entirely
// (the shrink path after a pin-overflow episode). Called with bp.mu held.
func (bp *BufferPool) retireLocked(f *frame) {
	for i, g := range bp.clock {
		if g == f {
			last := len(bp.clock) - 1
			bp.clock[i] = bp.clock[last]
			bp.clock[last] = nil
			bp.clock = bp.clock[:last]
			if bp.hand >= len(bp.clock) {
				bp.hand = 0
			}
			break
		}
	}
	if f.page >= 0 {
		delete(bp.frames, f.page)
		bp.evictions.Add(1)
	}
}

// ViewInto appends read-only views of a record's pages through the pool
// to buf (pass buf[:0] to reuse its backing array, so steady-state readers
// allocate nothing), charging physical reads only for misses. Every
// returned page is pinned; the caller must call Release(firstPage,
// pageCount) when done with the views.
func (bp *BufferPool) ViewInto(firstPage, pageCount int, buf [][]byte) ([][]byte, error) {
	if firstPage < 0 || pageCount < 1 || firstPage+pageCount > bp.backing.NumPages() {
		return nil, fmt.Errorf("pagefile: view [%d, %d) out of range of %d pages", firstPage, firstPage+pageCount, bp.backing.NumPages())
	}
	for i := 0; i < pageCount; i++ {
		pg, err := bp.page(firstPage + i)
		if err != nil {
			// Unpin the prefix already pinned.
			for j := 0; j < i; j++ {
				bp.release(firstPage + j)
			}
			return nil, err
		}
		buf = append(buf, pg)
	}
	return buf, nil
}

// Release drops the pins taken by a ViewInto over the same page range.
// The views must not be used after Release.
func (bp *BufferPool) Release(firstPage, pageCount int) {
	for i := firstPage; i < firstPage+pageCount; i++ {
		bp.release(i)
	}
}

// ReadInto appends the concatenated contents of a record's pages through
// the pool to buf (copying, like File.ReadInto; pass buf[:0] to reuse its
// backing array). Pages are pinned only for the duration of the copy, so
// the result is safe to hold indefinitely.
func (bp *BufferPool) ReadInto(firstPage, pageCount int, buf []byte) ([]byte, error) {
	if firstPage < 0 || pageCount < 1 || firstPage+pageCount > bp.backing.NumPages() {
		return nil, fmt.Errorf("pagefile: read [%d, %d) out of range of %d pages", firstPage, firstPage+pageCount, bp.backing.NumPages())
	}
	for i := firstPage; i < firstPage+pageCount; i++ {
		pg, err := bp.page(i)
		if err != nil {
			return nil, err
		}
		buf = append(buf, pg...)
		bp.release(i)
	}
	return buf, nil
}

// Overwrite writes through the pool: the backing is updated first, then
// any cached frames for the record are refreshed so later hits observe
// the new contents. Requires the same external write synchronization as
// the backing itself.
func (bp *BufferPool) Overwrite(firstPage, pageCount int, data []byte) error {
	if err := bp.backing.Overwrite(firstPage, pageCount, data); err != nil {
		return err
	}
	bp.mu.Lock()
	off := 0
	for i := firstPage; i < firstPage+pageCount; i++ {
		n := bp.backing.PageLen(i)
		if f, ok := bp.frames[i]; ok {
			copy(f.buf, data[off:off+n])
		}
		off += n
	}
	bp.mu.Unlock()
	return nil
}
