// Package stream is the engine-independent half of tsqlive, the streaming
// subsystem: a standing-query registry with enter/leave event delivery
// (Hub). Appends themselves are the engine's business — internal/core
// rewrites a record in place with the derivation an insert runs, and keeps
// no streaming state beside it. The tsq server layer owns one Hub and wires
// its monitors to the engine through closures, so this package never
// imports the engine.
package stream

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/telemetry"
)

func init() {
	telemetry.Describe("tsq_watch_dropped_events_total",
		"Monitor events dropped because a subscriber's buffer was full.")
}

// mWatchDropped is resolved once: emitLocked runs on every monitor event
// under the monitor lock, so the drop path must not pay a registry
// lookup.
var mWatchDropped = telemetry.Count("tsq_watch_dropped_events_total")

// Member is one element of a monitor's current answer set.
type Member struct {
	Name string
	Dist float64
}

// Event kinds.
const (
	// Enter reports a series joining a monitor's answer set; Dist carries
	// its distance at entry.
	Enter = "enter"
	// Leave reports a series dropping out of the answer set.
	Leave = "leave"
)

// Event is one membership change of a standing query. Seq increases by one
// per event within a monitor; subscribers receive events in Seq order
// (gaps mean the subscriber's buffer overflowed and events were dropped —
// see Sub.Dropped).
type Event struct {
	Monitor int64   `json:"monitor"`
	Seq     int64   `json:"seq"`
	Kind    string  `json:"kind"`
	Name    string  `json:"name"`
	Dist    float64 `json:"distance,omitempty"`
}

// Funcs are the engine-side callbacks of one monitor, supplied by the
// layer that owns the query engine (the hub itself never imports it). The
// hub serializes all calls per monitor, so the closures need no internal
// locking beyond whatever read-locking the engine requires.
type Funcs struct {
	// Eval runs the standing query in full and returns the current answer
	// set (every within-eps series for a range monitor, the top-k for an
	// NN monitor). Required.
	Eval func() ([]Member, error)
	// CheckOne returns one series' membership and distance in the current
	// answer set. Provide it for monitors whose per-series membership is
	// independent of other series (range monitors): a relevant write then
	// costs one exact verification instead of a full Eval. Leave nil for
	// relative monitors (NN), where any relevant write re-Evals.
	CheckOne func(name string) (Member, bool, error)
	// Relevant is the MBR prefilter: it reports whether a series whose
	// feature point now sits at p could belong to the answer set, given
	// the current k-th member distance (+Inf while a bounded monitor is
	// unfilled; 0 for unbounded monitors, which ignore it). A nil point —
	// an upsert whose position the caller does not know — must return
	// true. Never consulted for current members, whose writes are always
	// relevant. Nil means every write is relevant.
	Relevant func(p []float64, kth float64) bool
	// Rect, when non-empty, asserts that Relevant reduces to rectangle
	// containment of the raw feature point in this fixed rectangle (the
	// query's Lemma 1 search rectangle — only valid for unbounded monitors
	// whose transformation acts as the identity on the feature space, so
	// the rectangle never moves). The hub then indexes the monitor in a
	// shared R-tree over monitor rectangles: a write probes the tree once
	// instead of consulting every monitor serially, which is what makes
	// thousands of standing queries per store cheap. Angular carries the
	// per-dimension wrap-around flags of the rectangle's feature space.
	// Leave Rect zero for monitors whose relevance can change shape (NN
	// monitors, transformed queries); they are consulted on every write,
	// exactly as before.
	Rect    geom.Rect
	Angular []bool
}

// Monitor is one registered standing query: its membership bookkeeping,
// retained event ring, and subscribers.
type Monitor struct {
	ID   int64
	Kind string

	limit  int // answer-set size bound (k for NN monitors; 0 = unbounded)
	f      Funcs
	retain int
	hub    *Hub // owning registry; carries the member reverse index

	mu      sync.Mutex
	closed  bool
	members map[string]float64
	seq     int64
	events  []Event // last retain events, oldest first
	subs    map[int64]*Sub
	nextSub int64
}

// setMemberLocked / dropMemberLocked are the only paths that mutate a
// monitor's membership; they keep the hub's name -> monitors reverse index
// exactly in sync (which NotifyWrite and NotifyDelete rely on to find the
// monitors a name can leave). Caller holds m.mu.
func (m *Monitor) setMemberLocked(name string, dist float64) {
	if _, ok := m.members[name]; !ok {
		m.hub.memberAdd(name, m)
	}
	m.members[name] = dist
}

func (m *Monitor) dropMemberLocked(name string) {
	if _, ok := m.members[name]; ok {
		m.hub.memberRemove(name, m)
		delete(m.members, name)
	}
}

// Sub is one subscriber of a monitor's event stream.
type Sub struct {
	m       *Monitor
	id      int64
	ch      chan Event
	dropped atomic.Int64
}

// Events returns the subscriber's channel. It is closed when the
// subscription is cancelled or the monitor removed.
func (s *Sub) Events() <-chan Event { return s.ch }

// Dropped returns how many events were discarded because the subscriber's
// buffer was full (the stream is ordered but lossy under backpressure;
// resubscribe to resynchronize from a snapshot).
func (s *Sub) Dropped() int64 { return s.dropped.Load() }

// Cancel detaches the subscriber and closes its channel. Safe to call more
// than once.
func (s *Sub) Cancel() {
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	if _, ok := s.m.subs[s.id]; ok {
		delete(s.m.subs, s.id)
		close(s.ch)
	}
}

// Hub is the standing-query registry: monitors indexed by ID, notified on
// every store write. All methods are safe for concurrent use; per-monitor
// work (verification, event emission) runs under that monitor's own lock,
// so monitors never block one another.
//
// Monitors with a fixed search rectangle (Funcs.Rect) are additionally
// indexed in a shared R-tree, so a write resolves the monitors it could
// possibly concern with one spatial probe — the indexed-monitor analogue
// of the k-index's own filter step — plus a reverse-index lookup for the
// monitors the written name currently belongs to (leave detection).
// Monitors without a fixed rectangle stay on the serial path.
type Hub struct {
	retain int

	mu       sync.RWMutex
	monitors map[int64]*Monitor
	nextID   int64

	// Spatial index over fixed monitor rectangles. Rectangles are
	// immutable for a monitor's lifetime (Funcs.Rect's contract), so
	// entries change only at Add and Remove — probes never race a moving
	// rectangle. The tree is created lazily with the first indexable
	// monitor's dimensionality.
	idxMu     sync.RWMutex
	idx       *rtree.Tree
	angular   []bool
	indexed   map[int64]indexedMonitor
	unindexed map[int64]*Monitor

	// memberOf is the name -> monitors reverse index, maintained by the
	// monitors' membership mutations (lock order: Monitor.mu, then memMu).
	memMu    sync.Mutex
	memberOf map[string]map[int64]*Monitor
}

type indexedMonitor struct {
	m    *Monitor
	rect geom.Rect
}

// NewHub creates an empty registry retaining the given number of events
// per monitor for reconnect replay (<= 0 retains none).
func NewHub(retain int) *Hub {
	if retain < 0 {
		retain = 0
	}
	return &Hub{
		retain:    retain,
		monitors:  make(map[int64]*Monitor),
		indexed:   make(map[int64]indexedMonitor),
		unindexed: make(map[int64]*Monitor),
		memberOf:  make(map[string]map[int64]*Monitor),
	}
}

func (h *Hub) memberAdd(name string, m *Monitor) {
	h.memMu.Lock()
	set := h.memberOf[name]
	if set == nil {
		set = make(map[int64]*Monitor)
		h.memberOf[name] = set
	}
	set[m.ID] = m
	h.memMu.Unlock()
}

func (h *Hub) memberRemove(name string, m *Monitor) {
	h.memMu.Lock()
	if set := h.memberOf[name]; set != nil {
		delete(set, m.ID)
		if len(set) == 0 {
			delete(h.memberOf, name)
		}
	}
	h.memMu.Unlock()
}

// rectLimit clamps rectangle coordinates for R-tree storage: unbounded
// moment dimensions arrive as +/-MaxFloat64, whose interval widths
// overflow the tree's area and margin arithmetic to Inf (and Inf - Inf to
// NaN in split decisions). Clamping to +/-1e18 keeps every real mean/std
// inside while the geometry stays finite.
const rectLimit = 1e18

func clampRect(r geom.Rect) geom.Rect {
	out := r.Clone()
	for i := range out.Lo {
		out.Lo[i] = math.Max(out.Lo[i], -rectLimit)
		out.Hi[i] = math.Min(out.Hi[i], rectLimit)
	}
	return out
}

// Add registers a monitor, running Eval once for the initial membership.
// limit is the answer-set bound (0 for range monitors). The monitor is
// published to the registry *before* the initial evaluation, with its own
// lock held across it: a write committing while Eval runs either lands in
// Eval's answer or blocks on the monitor lock and re-verifies right after
// — no window in which a write is reflected nowhere.
func (h *Hub) Add(kind string, limit int, f Funcs) (*Monitor, error) {
	if f.Eval == nil {
		return nil, fmt.Errorf("stream: monitor needs an Eval func")
	}
	m := &Monitor{
		Kind:    kind,
		limit:   limit,
		f:       f,
		retain:  h.retain,
		hub:     h,
		members: make(map[string]float64),
		subs:    make(map[int64]*Sub),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h.mu.Lock()
	h.nextID++
	m.ID = h.nextID
	h.monitors[m.ID] = m
	h.mu.Unlock()
	// Reachable by NotifyWrite from here on — via the serial set until the
	// initial evaluation commits (a racing write blocks on m.mu and
	// re-verifies right after, preserving the no-lost-write invariant),
	// then via the spatial index when the monitor carries a fixed rect.
	h.idxMu.Lock()
	h.unindexed[m.ID] = m
	h.idxMu.Unlock()
	initial, err := f.Eval()
	if err != nil {
		h.mu.Lock()
		delete(h.monitors, m.ID)
		h.mu.Unlock()
		h.idxMu.Lock()
		delete(h.unindexed, m.ID)
		h.idxMu.Unlock()
		m.closed = true
		return nil, err
	}
	for _, mem := range initial {
		m.setMemberLocked(mem.Name, mem.Dist)
	}
	if limit == 0 && f.Rect.Dims() > 0 {
		h.indexMonitor(m, f)
	}
	return m, nil
}

// indexMonitor moves a freshly added monitor from the serial set into the
// spatial index. The registration re-check under idxMu closes the race
// with a concurrent Remove: Remove deregisters (h.mu) before its own
// idxMu cleanup, so either this check sees the monitor gone and skips
// indexing, or the insert lands first and Remove's cleanup — serialized
// behind the same idxMu — finds and deletes it. Without the re-check a
// Remove that cleaned the index before this insert would leak the closed
// monitor's rectangle in the tree forever.
func (h *Hub) indexMonitor(m *Monitor, f Funcs) {
	rect := clampRect(f.Rect)
	h.idxMu.Lock()
	defer h.idxMu.Unlock()
	h.mu.RLock()
	_, alive := h.monitors[m.ID]
	h.mu.RUnlock()
	if !alive {
		return
	}
	if h.idx == nil {
		t, err := rtree.New(rect.Dims(), rtree.Options{})
		if err != nil {
			return // unindexable geometry; stay on the serial path
		}
		h.idx = t
		h.angular = f.Angular
	}
	if h.idx.Dims() != rect.Dims() {
		return // mismatched schema; stay on the serial path
	}
	if err := h.idx.Insert(rect, m.ID, nil); err != nil {
		return
	}
	h.indexed[m.ID] = indexedMonitor{m: m, rect: rect}
	delete(h.unindexed, m.ID)
}

// Get returns a registered monitor.
func (h *Hub) Get(id int64) (*Monitor, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	m, ok := h.monitors[id]
	return m, ok
}

// Remove unregisters a monitor and closes every subscriber channel,
// reporting whether the ID was registered.
func (h *Hub) Remove(id int64) bool {
	h.mu.Lock()
	m, ok := h.monitors[id]
	delete(h.monitors, id)
	h.mu.Unlock()
	if !ok {
		return false
	}
	h.idxMu.Lock()
	if im, ok := h.indexed[id]; ok {
		h.idx.Delete(im.rect, id)
		delete(h.indexed, id)
	}
	delete(h.unindexed, id)
	h.idxMu.Unlock()
	m.mu.Lock()
	m.closed = true
	for name := range m.members {
		h.memberRemove(name, m)
	}
	m.members = make(map[string]float64)
	for id, s := range m.subs {
		delete(m.subs, id)
		close(s.ch)
	}
	m.mu.Unlock()
	return true
}

// Info describes a monitor for listings.
type Info struct {
	ID      int64
	Kind    string
	Members int
	Subs    int
	// Events is the replay-ring depth: retained events available for
	// reconnect resume.
	Events int
}

// List snapshots the registered monitors in ID order.
func (h *Hub) List() []Info {
	h.mu.RLock()
	ms := make([]*Monitor, 0, len(h.monitors))
	for _, m := range h.monitors {
		ms = append(ms, m)
	}
	h.mu.RUnlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	out := make([]Info, len(ms))
	for i, m := range ms {
		m.mu.Lock()
		out[i] = Info{ID: m.ID, Kind: m.Kind, Members: len(m.members), Subs: len(m.subs), Events: len(m.events)}
		m.mu.Unlock()
	}
	return out
}

// snapshotMonitors copies the monitor set for iteration without holding
// the hub lock during per-monitor work.
func (h *Hub) snapshotMonitors() []*Monitor {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]*Monitor, 0, len(h.monitors))
	for _, m := range h.monitors {
		out = append(out, m)
	}
	return out
}

// NotifyWrite re-evaluates the concerned monitors' membership of name
// after its series was appended to, inserted, or updated; p is the
// series' new feature point (nil when unknown, which disables spatial
// filtering). A monitor is concerned when the written point falls in its
// indexed rectangle (it may enter the answer set), when name is currently
// a member (it may leave or move), or when the monitor is unindexed.
// Membership is always verified against the live store, so when writes
// race, skipped intermediate states collapse into the final one —
// monitors converge on the store's current answer sets.
func (h *Hub) NotifyWrite(name string, p []float64) {
	for _, m := range h.writeTargets(name, p) {
		m.onWrite(name, p)
	}
}

// writeTargets resolves the monitors one write concerns: the serial set,
// the spatial probe's hits, and the written name's current memberships,
// deduplicated and ordered by ID for deterministic processing.
func (h *Hub) writeTargets(name string, p []float64) []*Monitor {
	seen := make(map[int64]*Monitor)
	h.idxMu.RLock()
	for id, m := range h.unindexed {
		seen[id] = m
	}
	if h.idx != nil {
		if p == nil || len(p) != h.idx.Dims() {
			for id, im := range h.indexed {
				seen[id] = im.m
			}
		} else {
			// The written point as a degenerate query box, the monitors'
			// rectangles read in place, angles compared modulo 2*pi.
			var sc rtree.Scratch
			h.idx.FlatRange(p, p, rtree.FlatMap{Identity: true, Angular: h.angular}, &sc, probeHits{h, seen})
		}
	}
	h.idxMu.RUnlock()
	h.memMu.Lock()
	for id, m := range h.memberOf[name] {
		seen[id] = m
	}
	h.memMu.Unlock()
	return sortedMonitors(seen)
}

// probeHits is the spatial probe's visitor: every indexed monitor whose
// rectangle holds the written point joins the write's targets.
type probeHits struct {
	h    *Hub
	seen map[int64]*Monitor
}

func (v probeHits) VisitFlat(id int64, tlo, thi, cart []float64, _ []complex128) bool {
	if im, ok := v.h.indexed[id]; ok {
		v.seen[id] = im.m
	}
	return true
}

func sortedMonitors(set map[int64]*Monitor) []*Monitor {
	out := make([]*Monitor, 0, len(set))
	for _, m := range set {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NotifyDelete records that name left the store: members emit a leave
// (bounded monitors also re-Eval to backfill the freed slot). Only the
// monitors name currently belongs to can be affected, so the reverse
// index resolves them directly — a delete of an unwatched series costs
// one map lookup regardless of how many monitors are registered.
func (h *Hub) NotifyDelete(name string) {
	h.memMu.Lock()
	set := make(map[int64]*Monitor, len(h.memberOf[name]))
	for id, m := range h.memberOf[name] {
		set[id] = m
	}
	h.memMu.Unlock()
	for _, m := range sortedMonitors(set) {
		m.onDelete(name)
	}
}

// RefreshAll re-evaluates every monitor in full — the recovery hammer for
// bulk operations that rewrite the store wholesale.
func (h *Hub) RefreshAll() {
	for _, m := range h.snapshotMonitors() {
		m.mu.Lock()
		m.evalAndDiffLocked()
		m.mu.Unlock()
	}
}

// kthLocked returns the current answer-set threshold for the prefilter:
// +Inf while a bounded monitor is unfilled (anything may enter), the worst
// member distance once full, 0 for unbounded monitors (ignored — their
// Relevant closures carry a fixed eps).
func (m *Monitor) kthLocked() float64 {
	if m.limit <= 0 {
		return 0
	}
	if len(m.members) < m.limit {
		return math.Inf(1)
	}
	worst := 0.0
	for _, d := range m.members {
		if d > worst {
			worst = d
		}
	}
	return worst
}

func (m *Monitor) onWrite(name string, p []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	_, isMember := m.members[name]
	if !isMember && m.f.Relevant != nil && !m.f.Relevant(p, m.kthLocked()) {
		return // MBR prefilter: provably cannot enter
	}
	if m.f.CheckOne == nil {
		// Relative membership (NN): any relevant change re-evaluates.
		m.evalAndDiffLocked()
		return
	}
	mem, within, err := m.f.CheckOne(name)
	if err != nil {
		m.evalAndDiffLocked() // repair from a full answer
		return
	}
	switch {
	case within && !isMember:
		m.setMemberLocked(name, mem.Dist)
		m.emitLocked(Enter, name, mem.Dist)
	case within && isMember:
		m.members[name] = mem.Dist // distance moved, membership unchanged
	case !within && isMember:
		m.dropMemberLocked(name)
		m.emitLocked(Leave, name, 0)
	}
}

func (m *Monitor) onDelete(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	if _, isMember := m.members[name]; !isMember {
		return
	}
	if m.limit > 0 {
		// A bounded answer set backfills from the store.
		m.evalAndDiffLocked()
		return
	}
	m.dropMemberLocked(name)
	m.emitLocked(Leave, name, 0)
}

// evalAndDiffLocked re-runs the standing query and emits the membership
// delta: leaves first (sorted by name), then enters (sorted by distance,
// then name) — a deterministic order for a deterministic answer set.
func (m *Monitor) evalAndDiffLocked() {
	fresh, err := m.f.Eval()
	if err != nil {
		return // keep the old membership; the next notification retries
	}
	next := make(map[string]float64, len(fresh))
	for _, mem := range fresh {
		next[mem.Name] = mem.Dist
	}
	var leaves []string
	for name := range m.members {
		if _, ok := next[name]; !ok {
			leaves = append(leaves, name)
		}
	}
	sort.Strings(leaves)
	var enters []Member
	for _, mem := range fresh {
		if _, ok := m.members[mem.Name]; !ok {
			enters = append(enters, mem)
		}
	}
	sort.Slice(enters, func(i, j int) bool {
		if enters[i].Dist != enters[j].Dist {
			return enters[i].Dist < enters[j].Dist
		}
		return enters[i].Name < enters[j].Name
	})
	for _, name := range leaves {
		m.dropMemberLocked(name)
	}
	for name, dist := range next {
		m.setMemberLocked(name, dist)
	}
	for _, name := range leaves {
		m.emitLocked(Leave, name, 0)
	}
	for _, mem := range enters {
		m.emitLocked(Enter, mem.Name, mem.Dist)
	}
}

func (m *Monitor) emitLocked(kind, name string, dist float64) {
	m.seq++
	ev := Event{Monitor: m.ID, Seq: m.seq, Kind: kind, Name: name, Dist: dist}
	if m.retain > 0 {
		if len(m.events) == m.retain {
			copy(m.events, m.events[1:])
			m.events = m.events[:m.retain-1]
		}
		m.events = append(m.events, ev)
	}
	for _, s := range m.subs {
		select {
		case s.ch <- ev:
		default:
			s.dropped.Add(1)
			if telemetry.Enabled() {
				mWatchDropped.Inc()
			}
		}
	}
}

// Members returns the current answer set sorted by (distance, name).
func (m *Monitor) Members() []Member {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.membersLocked()
}

func (m *Monitor) membersLocked() []Member {
	out := make([]Member, 0, len(m.members))
	for name, d := range m.members {
		out = append(out, Member{Name: name, Dist: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Subscribe attaches a buffered subscriber. after selects the catch-up
// mode: after < 0 requests a snapshot of the current membership; after
// >= 0 asks for a replay of the retained events with Seq > after, which
// succeeds (snapshot == nil) only when the retained ring still covers that
// point — otherwise the caller gets a fresh snapshot and the replay is
// nil. seq is the monitor's sequence number as of the snapshot: events on
// the channel continue from seq+1 with no gap.
func (m *Monitor) Subscribe(after int64, buf int) (sub *Sub, snapshot []Member, replay []Event, seq int64) {
	if buf < 1 {
		buf = 64
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextSub++
	sub = &Sub{m: m, id: m.nextSub, ch: make(chan Event, buf)}
	if m.closed {
		close(sub.ch)
		return sub, nil, nil, m.seq
	}
	m.subs[sub.id] = sub
	if after >= 0 && after <= m.seq {
		missed := m.seq - after
		if missed == 0 {
			return sub, nil, nil, m.seq
		}
		if int64(len(m.events)) >= missed {
			replay = make([]Event, missed)
			copy(replay, m.events[int64(len(m.events))-missed:])
			return sub, nil, replay, m.seq
		}
	}
	return sub, m.membersLocked(), nil, m.seq
}
