package sim

import "time"

// OwnerID identifies an attribution owner — a (component, kind) pair interned
// on an EventQueue — for the self-profiler. The zero OwnerID is reserved for
// unattributed work. Owner IDs are assigned in interning order, which follows
// the deterministic system Build order, so IDs (and therefore attribution
// reports) are reproducible run to run.
type OwnerID int32

// ownerKey is the interning key for an attribution owner.
type ownerKey struct {
	component string
	kind      string
}

// Owner interns a (component, kind) attribution owner on the queue and
// returns its stable ID. Interning is idempotent: the same pair always maps
// to the same ID on a given queue. Components call Owner once at construction
// time and tag the events they create with Event.SetOwner; tagging is always
// on and costs one int32 store, so no call-site gating is needed.
func (q *EventQueue) Owner(component, kind string) OwnerID {
	if q.ownerIDs == nil {
		q.ownerIDs = make(map[ownerKey]OwnerID)
		// ID 0 is the reserved unattributed owner.
		q.ownerKeys = append(q.ownerKeys, ownerKey{})
		q.ownerIDs[ownerKey{}] = 0
	}
	k := ownerKey{component, kind}
	if id, ok := q.ownerIDs[k]; ok {
		return id
	}
	id := OwnerID(len(q.ownerKeys))
	q.ownerIDs[k] = id
	q.ownerKeys = append(q.ownerKeys, k)
	if q.prof != nil {
		q.prof.grow(len(q.ownerKeys))
	}
	return id
}

// OwnerName returns the (component, kind) pair behind an interned OwnerID.
// The zero ID reports the reserved unattributed owner ("", "").
func (q *EventQueue) OwnerName(id OwnerID) (component, kind string) {
	if int(id) >= len(q.ownerKeys) {
		return "", ""
	}
	k := q.ownerKeys[id]
	return k.component, k.kind
}

// SetOwner tags the event with an attribution owner for the self-profiler.
// It returns the event so constructors can chain it. Untagged events charge
// to the reserved unattributed owner.
func (e *Event) SetOwner(id OwnerID) *Event {
	e.owner = id
	return e
}

// Owner returns the event's attribution owner.
func (e *Event) Owner() OwnerID { return e.owner }

// SetOwner tags the ticker's clock-edge event with an attribution owner.
func (t *Ticker) SetOwner(id OwnerID) { t.ev.owner = id }

// DefaultProfileEvery is the dispatch count between host-clock reads when a
// Profiler is attached without an explicit cadence. Sampling every 64
// dispatches keeps the on-path overhead of time.Now amortised well below the
// 5% budget while still giving sub-microsecond-of-host-time resolution per
// owner on realistic event rates.
const DefaultProfileEvery = 64

// Profiler attributes host wall-time and dispatch counts to event owners at
// the dispatch boundary. Event counts are exact and deterministic (they are
// incremented in the single-threaded dispatch loop and never depend on the
// host clock); host-nanosecond shares are sampled — the profiler reads the
// monotonic clock once every "every" dispatches and charges the whole window
// to the owner running at the sample point, so per-owner times converge to
// the true distribution while the hot path stays one counter decrement.
//
// A Profiler belongs to exactly one EventQueue and, like the queue, is
// single-threaded. When no profiler is attached the dispatch loop pays a
// single nil check and zero allocations.
type Profiler struct {
	q         *EventQueue
	counts    []uint64 // exact dispatch/phase counts, indexed by OwnerID
	nanos     []int64  // sampled host time, indexed by OwnerID
	current   OwnerID
	every     int32
	countdown int32
	last      time.Time
	attached  time.Time
}

// AttachProfiler attaches a self-profiler reading the host clock every
// "every" dispatches (<= 0 selects DefaultProfileEvery) and returns it.
// Attaching twice returns the existing profiler. Attribution counts restored
// from a checkpoint before the attach are folded into the new profiler so a
// save/restore run reports the same event-count attribution as the
// uninterrupted run.
func (q *EventQueue) AttachProfiler(every int) *Profiler {
	if q.prof != nil {
		return q.prof
	}
	if every <= 0 {
		every = DefaultProfileEvery
	}
	now := time.Now()
	p := &Profiler{
		q:         q,
		every:     int32(every),
		countdown: int32(every),
		last:      now,
		attached:  now,
	}
	p.grow(len(q.ownerKeys))
	q.prof = p
	if q.restoredAttr != nil {
		q.applyRestoredAttr()
	}
	return p
}

// SelfProfiler returns the attached profiler, or nil when profiling is off.
func (q *EventQueue) SelfProfiler() *Profiler { return q.prof }

// grow extends the per-owner slices to hold at least n owners.
func (p *Profiler) grow(n int) {
	for len(p.counts) < n {
		p.counts = append(p.counts, 0)
		p.nanos = append(p.nanos, 0)
	}
}

// hit records one dispatch for owner o and makes it the running owner. Called
// from the dispatch loop immediately before the event callback runs.
func (p *Profiler) hit(o OwnerID) {
	p.counts[o]++
	p.countdown--
	if p.countdown <= 0 {
		p.sample()
	}
	p.current = o
}

// sample reads the host clock and charges the elapsed window to the running
// owner, then re-arms the countdown.
func (p *Profiler) sample() {
	now := time.Now()
	p.nanos[p.current] += now.Sub(p.last).Nanoseconds()
	p.last = now
	p.countdown = p.every
}

// Enter switches attribution to owner o mid-event — the bytecode RTL engine
// uses it to sub-attribute tick phases (comb settle, sequential update,
// memory ports) — and returns the previous owner for the matching Exit.
// Enter counts one phase execution for o, so phase counts stay exact and
// deterministic.
func (p *Profiler) Enter(o OwnerID) OwnerID {
	prev := p.current
	p.counts[o]++
	p.countdown--
	if p.countdown <= 0 {
		p.sample()
	}
	p.current = o
	return prev
}

// Exit restores the owner returned by the matching Enter without counting an
// event.
func (p *Profiler) Exit(prev OwnerID) {
	p.countdown--
	if p.countdown <= 0 {
		p.sample()
	}
	p.current = prev
}

// OwnerStat is one row of a profiler report: exact event/phase counts and
// sampled host nanoseconds for a (component, kind) owner.
type OwnerStat struct {
	Component string
	Kind      string
	Events    uint64
	HostNS    int64
}

// Stats flushes the open sampling window and returns one OwnerStat per owner
// with activity, in deterministic interning (Build) order. The unattributed
// owner reports as component "(unattributed)".
func (p *Profiler) Stats() []OwnerStat {
	p.sample() // close the open window so HostNS sums to elapsed time
	out := make([]OwnerStat, 0, len(p.counts))
	for id := range p.counts {
		if p.counts[id] == 0 && p.nanos[id] == 0 {
			continue
		}
		comp, kind := p.q.OwnerName(OwnerID(id))
		if comp == "" && kind == "" {
			comp, kind = "(unattributed)", "dispatch"
		}
		out = append(out, OwnerStat{
			Component: comp,
			Kind:      kind,
			Events:    p.counts[id],
			HostNS:    p.nanos[id],
		})
	}
	return out
}

// WallNS returns the host nanoseconds elapsed since the profiler was
// attached.
func (p *Profiler) WallNS() int64 { return time.Since(p.attached).Nanoseconds() }

// applyRestoredAttr folds attribution counts restored from a checkpoint into
// the attached profiler, so the save/restore run's event-count attribution
// continues from the prefix run's exactly.
func (q *EventQueue) applyRestoredAttr() {
	for k, n := range q.restoredAttr {
		id := q.Owner(k.component, k.kind)
		q.prof.grow(int(id) + 1)
		q.prof.counts[id] += n
	}
	q.restoredAttr = nil
}
