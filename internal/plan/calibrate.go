package plan

import (
	"math"
	"math/cmplx"
	"sync"
	"time"

	"repro/internal/relation"
)

// Calibration probe shapes: sized like the production hot path (a K=2
// polar schema over length-128 series → 64 retained spectrum
// coefficients per verification, 6 feature dimensions, fan-out-40
// nodes), so the measured ratios transfer to real stores.
const (
	calCoeffs    = 64 // spectrum coefficients one full verification walks
	calAbandon   = 3  // coefficients an early-abandoned check touches
	calRecords   = 64 // stored spectra the verification probes cycle through
	calNodeDims  = 6  // feature dimensions per rectangle compare
	calNodeSlots = 40 // entries per index node (default fan-out)
	// calBudget is one primitive's share of the measurement; three
	// primitives keep a cold Calibrate call a little over a millisecond. (A
	// verification that leaves the head takes several hundred nanoseconds,
	// so batches of them need this much to repeat often enough for the
	// minimum to mean something.) calMinBatches is the floor on samples
	// per primitive however the budget went.
	calBudget     = 400 * time.Microsecond
	calMinBatches = 16
)

// calSink defeats dead-code elimination of the probe loops.
var calSink float64

// timePrimitives measures the ops' steady costs in nanoseconds, returning
// each one's fastest batch (minimum filters scheduler noise the way
// benchmark medians do, but cheaper). The ops take turns, batch by batch,
// until the time budget is spent and every one has been sampled
// calMinBatches times: whatever else the machine is doing then slows the
// same stretch of every primitive, not the whole of one, and a batch that
// sat out a preemption is one sample among many, never the only one.
func timePrimitives(ops ...func()) []float64 {
	const batch = 16
	best := make([]float64, len(ops))
	for i := range best {
		best[i] = math.Inf(1)
	}
	deadline := time.Now().Add(time.Duration(len(ops)) * calBudget)
	for rounds := 0; rounds < calMinBatches || time.Now().Before(deadline); rounds++ {
		for i, op := range ops {
			t0 := time.Now()
			for n := 0; n < batch; n++ {
				op()
			}
			if ns := float64(time.Since(t0).Nanoseconds()) / batch; ns > 0 && ns < best[i] {
				best[i] = ns
			}
		}
	}
	return best
}

// clampRatio bounds a measured cost ratio to [def/2, 2*def]: calibration
// refines the hand-measured defaults, it does not replace the model. A
// probe that lands far outside that band is measuring noise (preempted
// goroutine, frequency scaling mid-probe), not a machine that truly
// prices a node access at 20 verifications.
func clampRatio(measured, def float64) float64 {
	if math.IsNaN(measured) || math.IsInf(measured, 0) || measured <= 0 {
		return def
	}
	return math.Min(math.Max(measured, def/2), def*2)
}

// Reference probe ratios: what rawProbeRatios measures on the machine
// the default cost constants were hand-tuned on. Calibration scales each
// default by measured/reference — the probes run on a 64-record store in
// cache and cannot see what a real store adds (the directory and slab misses
// of a large relation, a buffer pool's faults), so the absolute probe
// ratios mean nothing; only their drift from the reference machine does.
// On the reference machine itself, Calibrate returns the defaults.
const (
	calRefCheckRatio = 0.0553 // check/verify probe ratio at default capture
	calRefNodeRatio  = 0.925  // node/verify probe ratio at default capture
)

// rawProbeRatios times the three primitive probes and returns the full-
// verification cost in nanoseconds plus the check/verify and node/verify
// ratios. Both verification probes read stored spectra the way the engine
// does — the record's resident head first, its pages only for a term past
// the head — so the ratio follows what the two outcomes of a candidate
// really cost here, a head hit against a page view, and not their
// arithmetic alone:
//
//   - full verification: a transformed distance accumulation across all
//     calCoeffs spectrum coefficients (the a*x+b-q multiply-add loop of
//     the exact check, ending in a square root), which walks out of the
//     head, takes the record's page view and decodes the rest from it;
//   - early-abandoned check: the same loop abandoning after calAbandon
//     coefficients, inside the head — the per-series cost of the
//     frequency-domain scan and the per-pair cost of the nested scan join;
//   - node access: a rectangle intersect-and-mindist pass over
//     calNodeSlots entries of calNodeDims dimensions — the per-node cost
//     of an index traversal.
func rawProbeRatios() (verifyNS, checkRatio, nodeRatio float64) {
	var qa, qb, qq [calCoeffs]complex128
	for i := range qa {
		f := float64(i + 1)
		qa[i] = complex(1/f, 0.2/f)
		qb[i] = complex(0.1*f, -0.05*f)
		qq[i] = cmplx.Rect(1/f, f)
	}
	rel := relation.New(0)
	rel.KeepHeads()
	for id := int64(0); id < calRecords; id++ {
		if err := rel.InsertRaw(id, relation.AppendComplex(nil, qq[:])); err != nil {
			return 0, 0, 0
		}
	}
	var (
		next  int64
		pages [][]byte
	)
	verify := func(stop int) {
		v, err := rel.View(next % calRecords)
		if err != nil {
			return
		}
		next++
		term := func(f int, x complex128) float64 {
			d := qa[f]*x + qb[f] - qq[(f+7)%calCoeffs]
			return real(d)*real(d) + imag(d)*imag(d)
		}
		sum := 0.0
		head := v.Head[:min(stop, len(v.Head))]
		for f, x := range head {
			sum += term(f, x)
		}
		if len(head) < stop {
			if pages, err = rel.ViewPagesInto(v, pages[:0]); err != nil {
				return
			}
			cur := relation.CursorAt(pages, rel.PageSize(), len(head))
			for f := len(head); f < stop; f++ {
				sum += term(f, cur.Next())
			}
			rel.ReleaseView(v)
		}
		calSink += math.Sqrt(sum)
	}

	var lo, hi, plo, phi [calNodeDims]float64
	for d := range lo {
		lo[d], hi[d] = float64(d)-1, float64(d)+1
		plo[d], phi[d] = float64(d)-0.5, float64(d)+2
	}
	node := func() {
		hits := 0
		sum := 0.0
		for s := 0; s < calNodeSlots; s++ {
			off := 0.01 * float64(s)
			inter := true
			for d := 0; d < calNodeDims; d++ {
				l, h := plo[d]+off, phi[d]+off
				if l > hi[d] || h < lo[d] {
					inter = false
					break
				}
				if g := l - hi[d]; g > 0 {
					sum += g * g
				}
			}
			if inter {
				hits++
			}
		}
		calSink += sum + float64(hits)
	}

	ns := timePrimitives(func() { verify(calCoeffs) }, func() { verify(calAbandon) }, node)
	if verifyNS = ns[0]; verifyNS <= 0 || math.IsInf(verifyNS, 1) {
		return 0, 0, 0
	}
	return verifyNS, ns[1] / verifyNS, ns[2] / verifyNS
}

// Calibrate measures the planner's primitive-operation costs on the
// running machine and returns cost constants scaled from the defaults by
// each probe ratio's drift from its reference value (see calRef*): a
// machine whose node passes run relatively slower than its distance
// arithmetic prices node accesses up, and vice versa. Each scaled
// constant is clamped to [half, twice] its default (see clampRatio); the
// join constants scale with the same measured drifts, preserving the
// model's deliberate scan-vs-join spread (a join pair check reuses the
// paged-in inner spectrum, so it stays cheaper than a standalone scan
// check by the shipped factor).
func Calibrate() Costs {
	def := DefaultCosts()
	if raceEnabled {
		// Instrumented build: probe timings are not representative of
		// production arithmetic. Keep the hand-measured defaults.
		return def
	}
	verifyNS, checkRatio, nodeRatio := rawProbeRatios()
	if verifyNS <= 0 {
		return def
	}
	scanDrift := checkRatio / calRefCheckRatio
	nodeDrift := nodeRatio / calRefNodeRatio

	c := def
	c.ScanUnit = clampRatio(def.ScanUnit*scanDrift, def.ScanUnit)
	c.NodeUnit = clampRatio(def.NodeUnit*nodeDrift, def.NodeUnit)
	c.JoinScanUnit = clampRatio(def.JoinScanUnit*(c.ScanUnit/def.ScanUnit), def.JoinScanUnit)
	c.JoinNodeUnit = clampRatio(def.JoinNodeUnit*(c.NodeUnit/def.NodeUnit), def.JoinNodeUnit)
	return c
}

var (
	calOnce   sync.Once
	calCached Costs
)

// Calibrated returns the process-wide calibrated cost constants,
// measuring once on first use (every store on a machine shares one
// hardware reality, so one measurement serves all).
func Calibrated() Costs {
	calOnce.Do(func() { calCached = Calibrate() })
	return calCached
}
