package main

import (
	"math/rand"
	"syscall"
	"time"
	"unsafe"
)

// The reference is the harness's own yardstick for how fast the machine
// is at the moment: one fixed piece of work, the same in every run
// whatever the seed, timed every few milliseconds between the reads of a
// round. It shares no code with the program and a change to the program
// cannot move it, so a time divided by the reference's time at that
// moment compares two versions of the program on a machine whose speed
// wanders (NOISE.md: by a factor of 1.5 within ten minutes, and mostly in
// the cost of a cache miss).
//
// The work is what the program's own hot loops do to memory: visit
// records scattered over an array ten times the size of a core's own
// caches, in a fixed pseudo-random order, and accumulate a squared
// distance over each. NOISE.md has the probe that chose it over an
// arithmetic loop, a pointer chase, a streaming read and a sequential
// scan.
const (
	refRecords = 40000 // records in the array: 20 MB
	refWidth   = 64    // float64s in a record
	refVisits  = 4000  // records visited per sample
	// refEvery is the pause between two samples while reads run: a sample
	// takes about a millisecond, so the yardstick costs a round about 5 %.
	refEvery = 20 * time.Millisecond
	// refNominalMS is the sample time the reported values are scaled to:
	// about what this box takes between reads when nothing disturbs it, so
	// that a run on such a machine reports its times nearly unchanged.
	refNominalMS = 1.2
)

type reference struct {
	recs  []float64
	order []int32
	next  int
	query [refWidth]float64
	sink  float64
}

// newReference builds the array outside the Go heap: an in-process store
// shares the heap with the harness, and 20 MB more of live heap would
// halve how often the collector runs beside it.
func newReference() (*reference, error) {
	rng := rand.New(rand.NewSource(0x7e57))
	mem, err := syscall.Mmap(-1, 0, refRecords*refWidth*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	r := &reference{recs: unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), refRecords*refWidth), order: make([]int32, refRecords)}
	for i := range r.recs {
		r.recs[i] = rng.Float64()
	}
	for i, p := range rng.Perm(refRecords) {
		r.order[i] = int32(p)
	}
	for i := range r.query {
		r.query[i] = rng.Float64()
	}
	return r, nil
}

// sample does one fixed batch of the reference work and returns how long
// it took, in milliseconds.
func (r *reference) sample() float64 {
	start := time.Now()
	best := 0.0
	for n := 0; n < refVisits; n++ {
		at := int(r.order[r.next]) * refWidth
		if r.next++; r.next == len(r.order) {
			r.next = 0
		}
		rec := r.recs[at : at+refWidth]
		d := 0.0
		for k, v := range rec {
			x := v - r.query[k]
			d += x * x
		}
		if n == 0 || d < best {
			best = d
		}
	}
	r.sink += best
	return ms(time.Since(start))
}

// speedOf turns reference samples into how slow the machine was while
// they were taken, against the nominal sample time. The mean and not the
// median: whatever a preempted processor adds to the reads between the
// samples it adds to the samples too.
func speedOf(samplesMS []float64) float64 {
	var sum float64
	for _, v := range samplesMS {
		sum += v
	}
	return sum / float64(len(samplesMS)) / refNominalMS
}
