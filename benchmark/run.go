package main

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// warmShare of each round's reads re-warm CPU caches and the connection
// after another round or the oracle ran; they are issued but not timed.
const warmShare = 0.05

// warmReads is how many of a round's n reads are issued before timing starts.
func warmReads(n int) int { return int(warmShare * float64(n)) }

// checkEvery: on read-only workloads every checkEvery-th answer of every
// round is kept and compared with the oracle after the rounds.
const checkEvery = 50

// finalChecks is how many extra reads a streaming workload issues after
// its appends have stopped, each compared with the oracle's view of the
// harness's mirror of the windows.
const finalChecks = 200

// round is what one replay of the read list measured.
type round struct {
	wall  float64 // seconds from the first timed read's start to the last read's end
	reads int     // timed reads that were answered
	// latMS[i] is read i's client-observed latency, NaN if it failed.
	latMS []float64
	// speed is how slow the machine was while the round ran: the mean of
	// the reference samples taken between its reads over the nominal
	// sample time (1 on an undisturbed machine, larger on a disturbed one).
	speed    float64
	appendMS []float64 // append latency from the moment it was due
	lateMS   []float64 // how late the generator sent each append
	// readsFailed and appendsFailed count operations that returned an
	// error; each still counts as attempted.
	readsFailed, appendsFailed int
	kept                       []keptReply
}

type keptReply struct {
	read int
	rep  reply
}

// appender is the open-loop side of a streaming workload: it sends
// appendPoints-point appends on a fixed schedule while a round runs,
// continuing each series' random walk, and mirrors what it sent.
type appender struct {
	st      store
	in      *inputs
	rate    float64
	windows [][]float64 // the harness's mirror of every stored window
	// lost: an append returned an error, so the store may or may not have
	// applied it and the mirror no longer says what the store holds.
	lost bool
}

func newAppender(st store, s spec, in *inputs) *appender {
	a := &appender{st: st, in: in, rate: s.appendRate, windows: make([][]float64, len(in.data.values))}
	for i, v := range in.data.values {
		a.windows[i] = append([]float64(nil), v...)
	}
	return a
}

// run sends appends until stop closes, recording into r.
func (a *appender) run(r *round, stop <-chan struct{}) {
	start := time.Now()
	step := time.Duration(float64(time.Second) / a.rate)
	for n := 0; ; n++ {
		due := start.Add(time.Duration(n) * step)
		if d := time.Until(due); d > 0 {
			select {
			case <-stop:
				return
			case <-time.After(d):
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		i := a.in.popular.draw(a.in.ticks)
		w := a.windows[i]
		points := make([]float64, appendPoints)
		x := w[len(w)-1]
		for j := range points {
			x = round2(x + a.in.ticks.NormFloat64())
			points[j] = x
		}
		sentAt := time.Now()
		err := a.st.append(a.in.data.names[i], points)
		done := time.Now()
		if err != nil {
			r.appendsFailed++
			a.lost = true
			continue
		}
		copy(w, w[appendPoints:])
		copy(w[len(w)-appendPoints:], points)
		r.appendMS = append(r.appendMS, ms(done.Sub(due)))
		r.lateMS = append(r.lateMS, ms(sentAt.Sub(due)))
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runRound replays reads [0, n) once, closed loop on one connection.
// keep decides which answers are retained for checking.
func runRound(st store, in *inputs, n int, app *appender, ref *reference, keep func(i int) bool) (*round, error) {
	r := &round{latMS: make([]float64, n)}
	warm := warmReads(n)
	var (
		stop chan struct{}
		wg   sync.WaitGroup
	)
	if app != nil {
		stop = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			app.run(r, stop)
		}()
	}
	var firstErr error
	var wallStart, done time.Time
	// The reference is sampled before the first read and then every
	// refEvery, between two reads; refBusy is what the timed part of the
	// round spent on it, which is not the program's time.
	var refMS []float64
	var refBusy time.Duration
	var lastRef time.Time
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if t0.Sub(lastRef) >= refEvery {
			refMS = append(refMS, ref.sample())
			lastRef = time.Now()
			if i > warm {
				refBusy += lastRef.Sub(t0)
			}
			t0 = lastRef
		}
		if i == warm {
			wallStart = t0
		}
		rep, err := st.read(i)
		done = time.Now()
		r.latMS[i] = ms(done.Sub(t0))
		if err != nil {
			r.readsFailed++
			r.latMS[i] = math.NaN()
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if i >= warm {
			r.reads++
		}
		if keep(i) {
			r.kept = append(r.kept, keptReply{read: i, rep: rep})
		}
	}
	r.wall = (done.Sub(wallStart) - refBusy).Seconds()
	r.speed = speedOf(refMS)
	if app != nil {
		close(stop)
		wg.Wait()
	}
	if r.readsFailed > n/2 {
		return r, fmt.Errorf("most reads failed, first: %w", firstErr)
	}
	return r, nil
}

// measured is the outcome of a run's measured phase.
type measured struct {
	rounds     []*round
	app        *appender // nil on a read-only workload
	attempted  int
	failed     int
	mismatches []string
	peakRSSMB  float64
}

// measure replays the read list round after round for the given time and
// then reads the host's peak resident set.
func measure(st store, s spec, in *inputs, ref *reference, seconds float64, minRounds int) (*measured, error) {
	m := &measured{}
	n := s.readsPerRound
	keep := func(i int) bool { return i%checkEvery == 0 }
	if s.appendRate > 0 {
		m.app = newAppender(st, s, in)
		keep = func(int) bool { return true }
	}
	start := time.Now()
	for {
		r, err := runRound(st, in, n, m.app, ref, keep)
		m.rounds = append(m.rounds, r)
		if err != nil {
			return m, err
		}
		elapsed := time.Since(start).Seconds()
		perRound := elapsed / float64(len(m.rounds))
		if len(m.rounds) >= minRounds && elapsed+perRound > seconds {
			break
		}
	}
	var err error
	m.peakRSSMB, err = st.peakRSSMB()
	return m, err
}

// check compares what the rounds kept with the oracle, outside any timing:
// exactly on a read-only workload; on a streaming one by invariants per
// answer and then exactly, with fresh reads, once the appends have stopped.
func (m *measured) check(st store, s spec, in *inputs) {
	n, app := s.readsPerRound, m.app
	for _, r := range m.rounds {
		m.attempted += n + len(r.appendMS) + r.appendsFailed
		m.failed += r.readsFailed + r.appendsFailed
	}
	if app == nil {
		m.checkReplays(in)
		return
	}
	for _, r := range m.rounds {
		for _, k := range r.kept {
			got, err := k.rep.hits()
			if err != nil {
				m.mismatch(in, k.read, err.Error())
			} else if why := invariants(&in.reads[k.read], got, s.count); why != "" {
				m.mismatch(in, k.read, why)
			}
		}
	}
	if app.lost {
		// The failed appends already fail the run; comparing against a
		// mirror that may be wrong would only add mismatches that are not
		// the program's.
		m.mismatches = append(m.mismatches, "an append failed: the final checks against the window mirror were skipped")
		return
	}
	// Quiesced: no append is in flight, so the store must now agree with
	// the mirror exactly — through whatever the result cache still holds.
	orc := newOracle(in.data.names, app.windows)
	for i := n; i < len(in.reads); i++ {
		m.attempted++
		rep, err := st.read(i)
		var got []hit
		if err == nil {
			got, err = rep.hits()
		}
		if err != nil {
			m.failed++
			m.mismatch(in, i, err.Error())
			continue
		}
		o := &in.reads[i]
		if why := orc.check(o, app.windows[o.series], got); why != "" {
			m.mismatch(in, i, "after quiescing: "+why)
		}
	}
}

// checkReplays compares every kept answer of a read-only workload with
// the oracle. The store never changes, so each read has one right answer
// and the oracle computes it once for all rounds.
func (m *measured) checkReplays(in *inputs) {
	orc := newOracle(in.data.names, in.data.values)
	verdict := map[int][]hit{}
	for _, r := range m.rounds {
		for _, k := range r.kept {
			got, err := k.rep.hits()
			if err != nil {
				m.mismatch(in, k.read, err.Error())
				continue
			}
			o := &in.reads[k.read]
			if first, ok := verdict[k.read]; ok {
				if !sameHits(first, got) {
					m.mismatch(in, k.read, "answer changed between rounds of a read-only workload")
				}
				continue
			}
			verdict[k.read] = got
			if why := orc.check(o, queryValues(in.data, o), got); why != "" {
				m.mismatch(in, k.read, why)
			}
		}
	}
}

func sameHits(a, b []hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (m *measured) mismatch(in *inputs, read int, why string) {
	m.failed++
	if len(m.mismatches) < 10 {
		m.mismatches = append(m.mismatches, fmt.Sprintf("read %d (%s): %s", read, statement(in.data, &in.reads[read]), why))
	}
}
