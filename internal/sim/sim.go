// Package sim provides the discrete-event simulation kernel that underpins
// every timed component in gem5rtl. It mirrors gem5's event queue semantics:
// simulated time is counted in integer Ticks (1 tick = 1 picosecond), events
// are ordered by (tick, priority, insertion sequence), and a single queue
// drives the whole system deterministically.
//
// # Queue internals
//
// The queue is a hybrid calendar/heap structure tuned for the simulator's
// event mix (see PERFORMANCE.md for the model and measurements):
//
//   - Near-future events — clock edges, port-queue drains, cache and memory
//     completions, everything within calWindow ticks of now — live in a
//     calendar ring with one slot per tick. Insertion and removal are O(1)
//     plus an insertion sort over the handful of events sharing one tick, and
//     dispatching a tick drains its slot as a batch with no per-event heap
//     churn. An occupancy bitmap makes "find the next non-empty tick" a few
//     word scans.
//   - Far-future events — sleep syscall wake-ups, periodic context checks —
//     fall back to a conventional binary heap and migrate into the ring only
//     when their tick comes up for dispatch.
//
// Both structures order events identically, so the dispatch order is
// bit-identical to a pure-heap queue; TestCalendarMatchesReferenceHeap and
// the kernel golden-state tests hold the two implementations to the same
// StateHash.
package sim

import (
	"container/heap"
	"fmt"
	"math/bits"
	"sort"
)

// Tick is a point in (or span of) simulated time. One Tick is one picosecond,
// matching gem5's convention, so a 2 GHz clock has a period of 500 Ticks.
type Tick uint64

// Common time spans expressed in Ticks.
const (
	Picosecond  Tick = 1
	Nanosecond  Tick = 1000 * Picosecond
	Microsecond Tick = 1000 * Nanosecond
	Millisecond Tick = 1000 * Microsecond
	Second      Tick = 1000 * Millisecond
)

// MaxTick is the largest representable simulated time.
const MaxTick = Tick(^uint64(0))

// Standard event priorities. Lower values run earlier within the same tick.
const (
	PriDefault  = 0
	PriCPU      = -10 // CPU ticks run before device ticks within a cycle
	PriStats    = 50  // stats dumps observe the post-update state of a tick
	PriSimExit  = 100 // exit events run after everything else in their tick
	PriMinFirst = -1 << 30
)

// Calendar-ring geometry. The window must comfortably cover the recurring
// near-future distances of the simulated SoC — clock periods (500–2000
// ticks), cache latencies (1000–10000 ticks) and DRAM round-trips (tens of
// nanoseconds) — so that only genuinely far events (microsecond sleeps,
// 100 us context checks) pay the heap. 2^16 ticks = 65.536 ns.
const (
	calWindowBits = 16
	calWindow     = Tick(1) << calWindowBits
	calMask       = uint64(calWindow) - 1
)

// Event is a schedulable unit of work. Create events with NewEvent (or
// EventQueue.ScheduleFunc) and schedule them on exactly one queue at a time.
//
// Ownership contract: an Event belongs to the component that created it and
// may be freely rescheduled once it is no longer pending (after dispatch, or
// after Deschedule). Events obtained through ScheduleOneShot are owned by the
// queue and are recycled immediately after dispatch — callers never see them
// and must not retain references from inside their own callbacks.
type Event struct {
	name string
	fn   func()
	when Tick
	prio int
	// rank is a stable arbitration key derived from the event name (FNV-64a).
	// Same-tick, same-priority events dispatch in rank order before falling
	// back to the insertion sequence, so the intra-tick order of events from
	// *different* components depends only on their names, not on the order
	// in which they happened to be scheduled. The committed goldens,
	// StateHash values and checkpoint bytes are pinned under this order.
	rank uint64
	seq  uint64
	// index is the event's far-heap position, or one of the sentinel states
	// below when it is not in the heap.
	index     int
	next      *Event // intrusive link: calendar slot list, or queue freelist
	scheduled bool
	oneShot   bool
	// owner attributes the event's dispatch time to a (component, kind)
	// pair when a Profiler is attached; see SetOwner. Always tagged (one
	// int32 store at creation), only read when profiling is on.
	owner OwnerID
}

// Event.index sentinels.
const (
	idxUnscheduled = -1
	idxNearRing    = -2
)

// nameRank hashes an event name with FNV-64a. The hash is computed once per
// event creation (or per one-shot rename) and cached in Event.rank.
func nameRank(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// NewEvent returns an unscheduled event that runs fn when dispatched.
// The name doubles as the event's stable arbitration identity: same-tick,
// same-priority ties dispatch in name-hash (rank) order, so names should be
// component-qualified and unique per component.
func NewEvent(name string, fn func()) *Event {
	return &Event{name: name, fn: fn, rank: nameRank(name), index: idxUnscheduled}
}

// NewEventPri is NewEvent with an explicit intra-tick priority.
func NewEventPri(name string, prio int, fn func()) *Event {
	return &Event{name: name, fn: fn, prio: prio, rank: nameRank(name), index: idxUnscheduled}
}

// Name returns the event's debug name.
func (e *Event) Name() string { return e.name }

// Scheduled reports whether the event is currently pending on a queue.
func (e *Event) Scheduled() bool { return e.scheduled }

// When returns the tick the event is scheduled for. Only meaningful while
// Scheduled() is true.
func (e *Event) When() Tick { return e.when }

// before orders two events scheduled for the same tick: by priority, then by
// name rank (stable across queue layouts), then by insertion sequence (FIFO
// among same-name events). It must agree with eventHeap.Less.
func (e *Event) before(o *Event) bool {
	if e.prio != o.prio {
		return e.prio < o.prio
	}
	if e.rank != o.rank {
		return e.rank < o.rank
	}
	return e.seq < o.seq
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.when != b.when {
		return a.when < b.when
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = idxUnscheduled
	*h = old[:n-1]
	return e
}

// EventQueue is a deterministic single-threaded event queue. The zero value
// is not usable; construct with NewEventQueue (or, for differential testing
// against the historical pure-heap dispatcher, NewReferenceEventQueue).
type EventQueue struct {
	now        Tick
	seq        uint64
	exitReason string
	exitSet    bool
	// dispatched is a plain counter on the Step hot path; the queue is
	// strictly single-threaded, so read it only from the sim goroutine
	// (host-side monitors aggregate it post-run via obs.CountEvents).
	dispatched uint64

	// curStamp identifies the dispatch context of the event currently (or
	// most recently) executing: its (when, prio, rank, seq). Port queues
	// capture it at insertion time so their arrival-tick ties resolve by the
	// *sender's* dispatch order, and checkpoint it with each queued packet.
	curStamp Stamp

	// stopAfter, when stopSet, caps RunUntil: no event with a later tick is
	// dispatched and time does not advance past it. Unlike ExitSimLoop it is
	// not an event and consumes no sequence numbers or dispatch counts, so a
	// run that completes via stop-after leaves the same queue state as one
	// given exactly that limit.
	stopAfter Tick
	stopSet   bool

	// Calendar ring: slot i holds the (prio, seq)-sorted intrusive list of
	// events at the unique tick t in [now, now+calWindow) with t mod
	// calWindow == i. bits mirrors slot occupancy for fast next-tick scans.
	slots     []*Event
	bits      []uint64
	nearCount int
	// nearNext caches the earliest ring tick; nearDirty forces a bitmap
	// rescan after the slot holding nearNext drains.
	nearNext  Tick
	nearDirty bool

	// far holds events at least calWindow ticks ahead (and everything when
	// ref is set). Far events migrate into the ring when their tick comes up.
	far eventHeap

	// freeEvents recycles one-shot events dispatched via ScheduleOneShot.
	freeEvents *Event

	// ref selects the reference pure-heap dispatcher (NewReferenceEventQueue).
	ref bool

	// Self-profiler state (prof.go). ownerKeys/ownerIDs intern attribution
	// owners whether or not a profiler is attached, so owner IDs are fixed
	// by deterministic Build order; prof is nil when profiling is off.
	ownerKeys    []ownerKey
	ownerIDs     map[ownerKey]OwnerID
	prof         *Profiler
	restoredAttr map[ownerKey]uint64
}

// NewEventQueue returns an empty queue positioned at tick 0.
func NewEventQueue() *EventQueue {
	if referenceMode {
		return NewReferenceEventQueue()
	}
	return &EventQueue{
		slots: make([]*Event, calWindow),
		bits:  make([]uint64, calWindow/64),
	}
}

// NewReferenceEventQueue returns a queue that dispatches purely from the
// binary heap, bypassing the calendar ring. It exists so tests (and the
// kernel benchmark harness) can prove the hybrid queue reproduces the
// historical dispatch order bit-for-bit; simulations should use
// NewEventQueue.
func NewReferenceEventQueue() *EventQueue {
	return &EventQueue{ref: true}
}

// referenceMode switches NewEventQueue-constructed queues to reference
// dispatch for code paths that build their own queues internally (soc.Build).
// Test-only; see UseReferenceQueueForTest.
var referenceMode bool

// UseReferenceQueueForTest makes every subsequently constructed EventQueue a
// reference (pure-heap) queue while on. It is NOT safe to toggle while
// simulations are running and exists solely for differential determinism
// tests that drive full systems through constructors they do not control.
func UseReferenceQueueForTest(on bool) {
	referenceMode = on
}

// Now returns the current simulated time.
func (q *EventQueue) Now() Tick { return q.now }

// Dispatched returns the total number of events executed so far; useful for
// simulator performance statistics (host events per second). Like the rest
// of the queue API it must be called from the simulation goroutine.
func (q *EventQueue) Dispatched() uint64 { return q.dispatched }

// Empty reports whether no events are pending.
func (q *EventQueue) Empty() bool { return q.nearCount == 0 && len(q.far) == 0 }

// Pending returns the number of scheduled events.
func (q *EventQueue) Pending() int { return q.nearCount + len(q.far) }

// Schedule inserts e at absolute time when. Scheduling into the past is a
// programming error and panics, as the resulting simulation would be
// non-causal.
//
// Contract: an event may be pending on at most one (queue, tick) at a time.
// Scheduling an already-pending event panics, naming the event and both the
// pending and requested ticks; use Reschedule to move a pending event, or
// Deschedule it first. An event becomes schedulable again the moment its
// callback starts executing, so self-rescheduling tickers are fine.
func (q *EventQueue) Schedule(e *Event, when Tick) {
	if e.scheduled {
		panic(fmt.Sprintf("sim: event %q already scheduled for tick %d, cannot schedule for tick %d (use Reschedule, or Deschedule first)",
			e.name, e.when, when))
	}
	if when < q.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %d, before now %d", e.name, when, q.now))
	}
	e.seq = q.seq
	q.seq++
	q.insert(e, when)
}

// insert files e (whose seq is already assigned) under its time class.
func (q *EventQueue) insert(e *Event, when Tick) {
	e.when = when
	e.scheduled = true
	if q.ref || when-q.now >= calWindow {
		heap.Push(&q.far, e)
		return
	}
	q.insertNear(e)
}

// insertNear links e into its calendar slot, keeping the slot list sorted by
// (prio, seq) so same-tick dispatch order matches the reference heap.
func (q *EventQueue) insertNear(e *Event) {
	e.index = idxNearRing
	si := uint64(e.when) & calMask
	head := q.slots[si]
	switch {
	case head == nil:
		e.next = nil
		q.slots[si] = e
		q.bits[si>>6] |= 1 << (si & 63)
	case e.before(head):
		e.next = head
		q.slots[si] = e
	default:
		p := head
		for p.next != nil && p.next.before(e) {
			p = p.next
		}
		e.next = p.next
		p.next = e
	}
	q.nearCount++
	if q.nearCount == 1 {
		q.nearNext = e.when
		q.nearDirty = false
	} else if !q.nearDirty && e.when < q.nearNext {
		q.nearNext = e.when
	}
}

// removeNear unlinks a pending ring event (Deschedule support).
func (q *EventQueue) removeNear(e *Event) {
	si := uint64(e.when) & calMask
	head := q.slots[si]
	if head == e {
		q.slots[si] = e.next
	} else {
		p := head
		for p.next != e {
			p = p.next
		}
		p.next = e.next
	}
	e.next = nil
	e.index = idxUnscheduled
	q.nearCount--
	if q.slots[si] == nil {
		q.bits[si>>6] &^= 1 << (si & 63)
		if e.when == q.nearNext {
			q.nearDirty = true
		}
	}
}

// scanNear finds the earliest non-empty ring tick at or after now. It must
// only be called while nearCount > 0.
func (q *EventQueue) scanNear() Tick {
	base := uint64(q.now) & calMask
	wi := base >> 6
	nw := uint64(len(q.bits))
	// First word: ignore slots before now's slot.
	if w := q.bits[wi] &^ (1<<(base&63) - 1); w != 0 {
		slot := wi<<6 + uint64(bits.TrailingZeros64(w))
		return q.now + Tick((slot-base)&calMask)
	}
	for i := uint64(1); i <= nw; i++ {
		j := (wi + i) % nw
		w := q.bits[j]
		if j == wi {
			// Wrapped all the way around: only slots before base remain.
			w &= 1<<(base&63) - 1
		}
		if w != 0 {
			slot := j<<6 + uint64(bits.TrailingZeros64(w))
			return q.now + Tick((slot-base)&calMask)
		}
	}
	panic("sim: scanNear with empty ring")
}

// NextEventTick returns the tick of the next pending event, or false when the
// queue is empty. It does not disturb the queue and is the introspection hook
// RunUntil and external pacing loops use.
func (q *EventQueue) NextEventTick() (Tick, bool) {
	var t Tick
	ok := false
	if q.nearCount > 0 {
		if q.nearDirty {
			q.nearNext = q.scanNear()
			q.nearDirty = false
		}
		t = q.nearNext
		ok = true
	}
	if len(q.far) > 0 && (!ok || q.far[0].when < t) {
		t = q.far[0].when
		ok = true
	}
	return t, ok
}

// migrateFar moves every far-heap event scheduled exactly at t into t's ring
// slot. Heap pops yield them in (prio, seq) order, so the sorted slot insert
// merges them with any ring events already at t in reference order.
func (q *EventQueue) migrateFar(t Tick) {
	for len(q.far) > 0 && q.far[0].when == t {
		e := heap.Pop(&q.far).(*Event)
		q.insertNear(e)
	}
}

// ScheduleFunc creates, schedules, and returns a one-shot event running fn.
// The returned event is caller-owned (it can be descheduled or rescheduled);
// use ScheduleOneShot when no handle is needed — it recycles events through
// an internal freelist and is allocation-free in steady state.
func (q *EventQueue) ScheduleFunc(name string, when Tick, fn func()) *Event {
	e := NewEvent(name, fn)
	q.Schedule(e, when)
	return e
}

// ScheduleOneShot schedules fn to run once at the given absolute tick using
// a queue-owned pooled event. No handle is returned: the event cannot be
// descheduled, and it is recycled into the queue's freelist as soon as the
// callback returns (unless the callback re-scheduled it, which only the
// queue itself can observe). Use it for fire-and-forget work — fault
// injections, delayed retries — where ScheduleFunc's per-call allocation
// would accumulate.
func (q *EventQueue) ScheduleOneShot(name string, when Tick, fn func()) {
	q.ScheduleOneShotOwned(name, when, 0, fn)
}

// ScheduleOneShotOwned is ScheduleOneShot with an attribution owner for the
// self-profiler; the pooled event carries the owner for this dispatch only.
func (q *EventQueue) ScheduleOneShotOwned(name string, when Tick, owner OwnerID, fn func()) {
	e := q.freeEvents
	if e != nil {
		q.freeEvents = e.next
		e.next = nil
		e.name = name
		e.rank = nameRank(name)
		e.fn = fn
		e.prio = PriDefault
	} else {
		e = &Event{name: name, fn: fn, rank: nameRank(name), index: idxUnscheduled, oneShot: true}
	}
	e.owner = owner
	q.Schedule(e, when)
}

// recycleEvent returns a dispatched one-shot event to the freelist, dropping
// the callback so captured state is not retained.
func (q *EventQueue) recycleEvent(e *Event) {
	e.fn = nil
	e.name = ""
	e.next = q.freeEvents
	q.freeEvents = e
}

// Deschedule removes a pending event from the queue. The event may be
// scheduled again afterwards. Descheduling an event that is not pending
// panics.
func (q *EventQueue) Deschedule(e *Event) {
	if !e.scheduled {
		panic(fmt.Sprintf("sim: descheduling unscheduled event %q", e.name))
	}
	if e.index >= 0 {
		heap.Remove(&q.far, e.index)
	} else {
		q.removeNear(e)
	}
	e.scheduled = false
}

// Reschedule moves a pending event to a new time; if the event is not
// scheduled it is simply scheduled.
func (q *EventQueue) Reschedule(e *Event, when Tick) {
	if e.scheduled {
		q.Deschedule(e)
	}
	q.Schedule(e, when)
}

// Step dispatches the single next event. It returns false when the queue is
// empty or an exit has been requested.
func (q *EventQueue) Step() bool {
	if q.exitSet {
		return false
	}
	if q.ref {
		return q.stepRef()
	}
	t, ok := q.NextEventTick()
	if !ok {
		return false
	}
	q.now = t
	if len(q.far) > 0 && q.far[0].when == t {
		q.migrateFar(t)
	}
	si := uint64(t) & calMask
	e := q.slots[si]
	q.slots[si] = e.next
	if e.next == nil {
		q.bits[si>>6] &^= 1 << (si & 63)
		q.nearDirty = true
	}
	e.next = nil
	e.index = idxUnscheduled
	e.scheduled = false
	q.nearCount--
	q.dispatched++
	q.curStamp = Stamp{When: e.when, Prio: int32(e.prio), Rank: e.rank, Seq: e.seq}
	if p := q.prof; p != nil {
		p.hit(e.owner)
	}
	e.fn()
	if e.oneShot && !e.scheduled {
		q.recycleEvent(e)
	}
	return true
}

// stepRef is the reference pure-heap dispatcher (the pre-calendar-queue
// implementation, kept for differential testing).
func (q *EventQueue) stepRef() bool {
	if len(q.far) == 0 {
		return false
	}
	e := heap.Pop(&q.far).(*Event)
	q.now = e.when
	e.scheduled = false
	q.dispatched++
	q.curStamp = Stamp{When: e.when, Prio: int32(e.prio), Rank: e.rank, Seq: e.seq}
	if p := q.prof; p != nil {
		p.hit(e.owner)
	}
	e.fn()
	if e.oneShot && !e.scheduled {
		q.recycleEvent(e)
	}
	return true
}

// ExitSimLoop requests that Run/RunUntil return after the current event. It
// mirrors gem5's exit_sim_loop mechanism; the reason is retrievable with
// ExitReason.
func (q *EventQueue) ExitSimLoop(reason string) {
	q.exitReason = reason
	q.exitSet = true
}

// ExitReason returns the reason passed to ExitSimLoop, or "" if none.
func (q *EventQueue) ExitReason() string { return q.exitReason }

// ClearExit re-arms the queue after an exit so simulation can be resumed.
func (q *EventQueue) ClearExit() { q.exitSet = false; q.exitReason = "" }

// Run dispatches events until the queue drains or ExitSimLoop is called.
// It returns the exit reason ("" if the queue simply drained).
func (q *EventQueue) Run() string {
	for q.Step() {
	}
	return q.exitReason
}

// PendingSummaries returns short one-line descriptions of up to max pending
// events in dispatch order (all of them when max <= 0). It is a diagnostic
// introspection hook — the liveness watchdog dumps it when a simulation
// wedges — and does not disturb the queue.
func (q *EventQueue) PendingSummaries(max int) []string {
	evs := q.pendingInOrder()
	if max > 0 && len(evs) > max {
		evs = evs[:max]
	}
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = fmt.Sprintf("%s @%d prio=%d", e.name, e.when, e.prio)
	}
	return out
}

// pendingInOrder returns every pending event (near ring and far heap) in
// dispatch order: (when, prio, rank, seq).
func (q *EventQueue) pendingInOrder() []*Event {
	evs := make([]*Event, 0, q.Pending())
	evs = append(evs, q.far...)
	for si, head := range q.slots {
		if q.bits[si>>6]&(1<<(uint(si)&63)) == 0 {
			continue
		}
		for e := head; e != nil; e = e.next {
			evs = append(evs, e)
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.when != b.when {
			return a.when < b.when
		}
		return a.before(b)
	})
	return evs
}

// RunUntil dispatches events with tick <= limit (further capped by
// SetStopAfter when armed). Time advances to the effective limit if the
// queue drains earlier. Returns the exit reason ("" if none).
func (q *EventQueue) RunUntil(limit Tick) string {
	for !q.exitSet {
		eff := limit
		if q.stopSet && q.stopAfter < eff {
			eff = q.stopAfter
		}
		t, ok := q.NextEventTick()
		if !ok || t > eff {
			break
		}
		q.Step()
	}
	eff := limit
	if q.stopSet && q.stopAfter < eff {
		eff = q.stopAfter
	}
	if !q.exitSet && q.now < eff {
		q.now = eff
	}
	return q.exitReason
}

// Stamp is the identity of one event dispatch: the (when, prio, rank, seq)
// key under which the event was ordered. Stamps order exactly like the
// dispatch order itself, so "sort by stamp" reproduces "order of side
// effects" — the property port queues use to order same-tick arrivals.
type Stamp struct {
	When Tick
	Prio int32
	Rank uint64
	Seq  uint64
}

// Less orders stamps by (when, prio, rank, seq).
func (s Stamp) Less(o Stamp) bool {
	if s.When != o.When {
		return s.When < o.When
	}
	if s.Prio != o.Prio {
		return s.Prio < o.Prio
	}
	if s.Rank != o.Rank {
		return s.Rank < o.Rank
	}
	return s.Seq < o.Seq
}

// CurrentStamp returns the dispatch stamp of the event currently executing
// (or, between dispatches, the most recently executed one; the zero Stamp
// before any event has run). Single-threaded like the rest of the queue API.
func (q *EventQueue) CurrentStamp() Stamp { return q.curStamp }

// SetStopAfter caps RunUntil at tick t: events scheduled later stay pending
// and simulated time stops at t. Unlike ExitSimLoop this consumes no event,
// sequence number or dispatch count — completion detected mid-run (the last
// NVDLA interrupt) can end the run at a later aligned tick while leaving
// queue state identical to a run that was given exactly that limit.
func (q *EventQueue) SetStopAfter(t Tick) {
	q.stopAfter = t
	q.stopSet = true
}

// ClearStopAfter disarms SetStopAfter.
func (q *EventQueue) ClearStopAfter() { q.stopSet = false; q.stopAfter = 0 }
