package sim

import (
	"fmt"
	"sort"

	"gem5rtl/internal/ckpt"
)

// SaveState serialises the queue as the "sim.eventq" section: clock,
// canonical sequence space (see canonicalizeSeqs), dispatch count and exit
// latch, followed by the self-profiler's attribution table. Pending events
// are deliberately not serialised here: events hold closures, which cannot
// cross a process boundary. Instead every component saves the scheduling
// state of the events it owns (SaveEvent) and re-materialises them during
// its own RestoreState (RestoreEvent).
func (q *EventQueue) SaveState(w *ckpt.Writer) error {
	n := q.canonicalizeSeqs()
	w.Section("sim.eventq")
	w.U64(uint64(q.now))
	w.U64(CanonicalSeqBase + n)
	w.U64(q.dispatched)
	w.Bool(q.exitSet)
	w.String(q.exitReason)
	q.saveAttr(w)
	return w.Err()
}

// canonicalizeSeqs renumbers the pending events: they sort by (when, prio,
// rank, seq), the dispatch order, and get seq 0..n-1 in that order. It
// returns n. Renumbering keeps the relative order of every pair of events,
// so it never perturbs future dispatch. It makes the checkpoint encoding
// (and therefore StateHash) depend only on the pending events' dispatch
// order, not on how many sequence numbers the run consumed to reach them;
// the committed goldens and checkpoint bytes are pinned in this encoding.
func (q *EventQueue) canonicalizeSeqs() uint64 {
	all := q.pendingInOrder()
	for i, e := range all {
		e.seq = uint64(i)
	}
	// Future Schedule calls mint from CanonicalSeqBase+n: far above both the
	// renumbered events and the per-port-queue stamp ordinals (port/ckpt.go),
	// so anything scheduled after the save — in the saving run or in a
	// restored one — orders behind everything that predates it. The saving
	// run and a restored run mint identical sequences from here on, which
	// keeps save-and-continue bit-identical to restore-and-continue.
	n := uint64(len(all))
	q.seq = CanonicalSeqBase + n
	return n
}

// CanonicalSeqBase is the post-canonicalization floor of the event sequence
// counter; see EventQueue.SaveState.
const CanonicalSeqBase = uint64(1) << 32

// saveAttr persists the self-profiler's exact per-owner event counts (host
// times are machine-dependent and deliberately excluded), sorted by
// (component, kind) so the encoding does not depend on OwnerID interning
// order. With profiling off it writes an empty table.
func (q *EventQueue) saveAttr(w *ckpt.Writer) {
	type entry struct {
		k ownerKey
		n uint64
	}
	var attr []entry
	if q.prof != nil {
		for id, c := range q.prof.counts {
			if c != 0 {
				attr = append(attr, entry{q.ownerKeys[id], c})
			}
		}
	}
	sort.Slice(attr, func(i, j int) bool {
		if attr[i].k.component != attr[j].k.component {
			return attr[i].k.component < attr[j].k.component
		}
		return attr[i].k.kind < attr[j].k.kind
	})
	w.U32(uint32(len(attr)))
	for _, a := range attr {
		w.String(a.k.component)
		w.String(a.k.kind)
		w.U64(a.n)
	}
}

// RestoreState loads the queue's clock, counters and attribution table. It
// must run on a pristine queue (freshly built system, nothing started) and
// before any component restores: component reschedules validate against the
// restored clock, and the restored sequence counter guarantees that events
// scheduled after the restore order behind every re-materialised one.
func (q *EventQueue) RestoreState(r *ckpt.Reader) error {
	if q.now != 0 || q.Pending() != 0 || q.dispatched != 0 {
		return fmt.Errorf("sim: queue restore requires a pristine queue (now=%d, pending=%d, dispatched=%d)",
			q.now, q.Pending(), q.dispatched)
	}
	r.Section("sim.eventq")
	q.now = Tick(r.U64())
	q.seq = r.U64()
	q.dispatched = r.U64()
	q.exitSet = r.Bool()
	q.exitReason = r.String()
	n := r.U32()
	if n > 0 {
		q.restoredAttr = make(map[ownerKey]uint64, n)
		for i := uint32(0); i < n && r.Err() == nil; i++ {
			comp := r.String()
			kind := r.String()
			q.restoredAttr[ownerKey{comp, kind}] += r.U64()
		}
		// A profiler attached before the restore folds the counts in now;
		// otherwise AttachProfiler picks them up, and a profiling-off run
		// simply discards them.
		if q.prof != nil {
			q.applyRestoredAttr()
		}
	}
	return r.Err()
}

// RestoreSchedule inserts e with an explicit (when, seq) pair captured by a
// checkpoint. Unlike Schedule it does not mint a fresh sequence number:
// keeping the saved one makes dispatch ordering independent of the order in
// which components happen to re-materialise their events. The queue's own
// counter is bumped past seq so post-restore Schedule calls cannot collide.
func (q *EventQueue) RestoreSchedule(e *Event, when Tick, seq uint64) {
	if e.scheduled {
		panic(fmt.Sprintf("sim: restoring already-scheduled event %q", e.name))
	}
	if when < q.now {
		panic(fmt.Sprintf("sim: event %q restored at %d, before now %d", e.name, when, q.now))
	}
	e.seq = seq
	q.insert(e, when)
	if seq >= q.seq {
		q.seq = seq + 1
	}
}

// SaveEvent records the scheduling state of a component-owned event:
// whether it is pending and, if so, its tick and sequence number.
func SaveEvent(w *ckpt.Writer, e *Event) {
	w.Bool(e.scheduled)
	if e.scheduled {
		w.U64(uint64(e.when))
		w.U64(e.seq)
	}
}

// RestoreEvent re-schedules e from state captured by SaveEvent. The event
// must belong to the restoring component (its closure is recreated by the
// component's constructor; only the scheduling state travels through the
// checkpoint).
func (q *EventQueue) RestoreEvent(r *ckpt.Reader, e *Event) {
	if !r.Bool() {
		return
	}
	when := Tick(r.U64())
	seq := r.U64()
	if r.Err() != nil {
		return
	}
	q.RestoreSchedule(e, when, seq)
}

// SaveState captures the ticker's cycle count and pending-edge event.
func (t *Ticker) SaveState(w *ckpt.Writer) error {
	w.Section("sim.ticker")
	w.U64(t.cycle)
	SaveEvent(w, t.ev)
	return w.Err()
}

// RestoreState reinstates the cycle count and (if it was pending) the next
// clock-edge event. Restored tickers must not also be Start()ed.
func (t *Ticker) RestoreState(r *ckpt.Reader) error {
	r.Section("sim.ticker")
	t.cycle = r.U64()
	t.dom.q.RestoreEvent(r, t.ev)
	return r.Err()
}
