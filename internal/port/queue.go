package port

import (
	"gem5rtl/internal/sim"
)

// RespQueue schedules response packets for future delivery through a
// ResponsePort, transparently handling refusals and retries. It reproduces
// gem5's queued-port behaviour: components decide *when* a response is ready
// (e.g. after a memory access latency) and the queue deals with the timing
// protocol. Deliveries preserve readiness order.
type RespQueue struct {
	q    *sim.EventQueue
	port *ResponsePort
	ev   *sim.Event

	// pending[head:] holds the live queue. Delivered entries advance head
	// instead of re-slicing, so the backing array is reused indefinitely;
	// it resets to the front whenever the queue drains.
	pending []queuedPkt
	head    int
	blocked bool
}

// queuedPkt is one scheduled delivery. stamp is the dispatch stamp of the
// event that inserted it (sim.EventQueue.CurrentStamp at Schedule time, or
// the saved stamp on restore): entries are kept sorted by (when, stamp),
// which within a run is exactly the insertion-order-stable sort (stamps are
// monotone in dispatch order). Stamps travel in checkpoints, so entries
// restored with canonicalised stamps keep their order against entries
// queued after the restore.
type queuedPkt struct {
	pkt   *Packet
	when  sim.Tick
	stamp sim.Stamp
}

// insertPos returns the sorted insertion index for (when, stamp) in
// pending[lo:], stable for equal keys (insert after existing equals).
func insertPos(pending []queuedPkt, lo int, when sim.Tick, stamp sim.Stamp) int {
	i := len(pending)
	for i > lo {
		p := &pending[i-1]
		if p.when < when || (p.when == when && !stamp.Less(p.stamp)) {
			break
		}
		i--
	}
	return i
}

// NewRespQueue creates a queue draining through port on event queue q. The
// drain event is attributed to owner (name, "drain") by default; owners that
// prefer a cleaner attribution label can override it with SetOwner.
func NewRespQueue(name string, q *sim.EventQueue, port *ResponsePort) *RespQueue {
	rq := &RespQueue{q: q, port: port}
	rq.ev = sim.NewEvent(name+".drain", rq.drain).SetOwner(q.Owner(name, "drain"))
	return rq
}

// SetOwner re-tags the drain event's self-profiler attribution owner.
func (rq *RespQueue) SetOwner(id sim.OwnerID) { rq.ev.SetOwner(id) }

// Schedule queues pkt (which must already be a response) for delivery at the
// given absolute tick, stamped with the current dispatch context.
func (rq *RespQueue) Schedule(pkt *Packet, when sim.Tick) {
	if !pkt.IsResponse() {
		panic("port: RespQueue.Schedule with non-response packet")
	}
	if when < rq.q.Now() {
		when = rq.q.Now()
	}
	if rq.head > 0 && len(rq.pending) == cap(rq.pending) {
		// Reclaim the delivered prefix before the append would grow the array.
		n := copy(rq.pending, rq.pending[rq.head:])
		for j := n; j < len(rq.pending); j++ {
			rq.pending[j] = queuedPkt{}
		}
		rq.pending = rq.pending[:n]
		rq.head = 0
	}
	// Insert keeping the queue sorted by (readiness time, sender stamp),
	// stable for equal keys — identical to issue order.
	stamp := rq.q.CurrentStamp()
	i := insertPos(rq.pending, rq.head, when, stamp)
	rq.pending = append(rq.pending, queuedPkt{})
	copy(rq.pending[i+1:], rq.pending[i:])
	rq.pending[i] = queuedPkt{pkt, when, stamp}
	rq.arm()
}

// Empty reports whether no responses are queued.
func (rq *RespQueue) Empty() bool { return len(rq.pending) == rq.head }

// Len returns the number of queued responses.
func (rq *RespQueue) Len() int { return len(rq.pending) - rq.head }

func (rq *RespQueue) arm() {
	if rq.blocked || rq.Empty() {
		return
	}
	when := rq.pending[rq.head].when
	if rq.ev.Scheduled() {
		if rq.ev.When() <= when {
			return
		}
		rq.q.Deschedule(rq.ev)
	}
	rq.q.Schedule(rq.ev, when)
}

func (rq *RespQueue) drain() {
	for rq.head < len(rq.pending) && rq.pending[rq.head].when <= rq.q.Now() {
		pkt := rq.pending[rq.head].pkt
		if !rq.port.SendTimingResp(pkt) {
			// Peer refused: hold everything until RecvRespRetry.
			rq.blocked = true
			return
		}
		rq.pending[rq.head] = queuedPkt{}
		rq.head++
	}
	if rq.head == len(rq.pending) {
		rq.pending = rq.pending[:0]
		rq.head = 0
	}
	rq.arm()
}

// RecvRespRetry must be called by the owning responder's RecvRespRetry.
func (rq *RespQueue) RecvRespRetry() {
	rq.blocked = false
	rq.drain()
}

// ReqQueue is the symmetric helper for requestors: it schedules request
// packets for future transmission through a RequestPort, handling refusals.
type ReqQueue struct {
	q    *sim.EventQueue
	port *RequestPort
	ev   *sim.Event

	pending []queuedPkt
	blocked bool
}

// NewReqQueue creates a queue transmitting through port. The drain event is
// attributed to owner (name, "drain") by default; see RespQueue.SetOwner.
func NewReqQueue(name string, q *sim.EventQueue, port *RequestPort) *ReqQueue {
	rq := &ReqQueue{q: q, port: port}
	rq.ev = sim.NewEvent(name+".drain", rq.drain).SetOwner(q.Owner(name, "drain"))
	return rq
}

// SetOwner re-tags the drain event's self-profiler attribution owner.
func (rq *ReqQueue) SetOwner(id sim.OwnerID) { rq.ev.SetOwner(id) }

// Schedule queues a request for transmission at the given absolute tick,
// stamped with the current dispatch context.
func (rq *ReqQueue) Schedule(pkt *Packet, when sim.Tick) {
	if pkt.IsResponse() {
		panic("port: ReqQueue.Schedule with response packet")
	}
	if when < rq.q.Now() {
		when = rq.q.Now()
	}
	stamp := rq.q.CurrentStamp()
	i := insertPos(rq.pending, 0, when, stamp)
	rq.pending = append(rq.pending, queuedPkt{})
	copy(rq.pending[i+1:], rq.pending[i:])
	rq.pending[i] = queuedPkt{pkt, when, stamp}
	rq.arm()
}

// Empty reports whether no requests are queued.
func (rq *ReqQueue) Empty() bool { return len(rq.pending) == 0 }

// Len returns the number of queued requests.
func (rq *ReqQueue) Len() int { return len(rq.pending) }

func (rq *ReqQueue) arm() {
	if rq.blocked || len(rq.pending) == 0 {
		return
	}
	when := rq.pending[0].when
	if rq.ev.Scheduled() {
		if rq.ev.When() <= when {
			return
		}
		rq.q.Deschedule(rq.ev)
	}
	rq.q.Schedule(rq.ev, when)
}

// drain transmits every ready packet it can. A refusal does not block
// later ready packets: a multi-channel memory controller may refuse a
// request for one full channel while accepting traffic for others, and
// head-of-line blocking here would serialise independent streams. Refused
// packets keep their queue position and are retried on RecvReqRetry.
func (rq *ReqQueue) drain() {
	now := rq.q.Now()
	anyRefused := false
	i := 0
	for i < len(rq.pending) && rq.pending[i].when <= now {
		pkt := rq.pending[i].pkt
		if rq.port.SendTimingReq(pkt) {
			rq.pending = append(rq.pending[:i], rq.pending[i+1:]...)
			continue
		}
		anyRefused = true
		i++
	}
	if anyRefused {
		rq.blocked = true
		return
	}
	rq.arm()
}

// RecvReqRetry must be called by the owning requestor's RecvReqRetry.
func (rq *ReqQueue) RecvReqRetry() {
	rq.blocked = false
	rq.drain()
}
