// Package rtlobject implements the paper's central contribution: the generic
// RTLObject that embeds an RTL model (behind a shared-library-style
// tick/reset Wrapper) into the simulated SoC, bridging the model's interfaces
// to gem5-style timing ports and packets.
//
// As in the paper (§3.4), the RTLObject provides:
//
//   - four predefined timing ports — two CPU-side response ports, through
//     which SoC agents (cores, DMA) reach the RTL block, and two memory-side
//     request ports, through which the RTL block reaches caches or DRAM;
//   - a tick event driven at a configurable ratio of the core clock;
//   - optional TLB hookup for address translation of the model's memory
//     requests;
//   - Input/Output structs exchanged with the wrapper on every model tick,
//     mirroring the paper's void*-struct protocol; and
//   - an interrupt line delivered to a registered callback.
//
// The in-flight request limit that drives the paper's NVDLA design-space
// exploration is enforced here: memory requests beyond MaxInflight wait in
// an internal queue until responses retire earlier ones.
package rtlobject

import (
	"fmt"

	"gem5rtl/internal/obs"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

// NumCPUPorts and NumMemPorts are the predefined port counts of §3.4.
const (
	NumCPUPorts = 2
	NumMemPorts = 2
)

// MemRequest is one memory access the RTL model asks the framework to issue
// on its behalf through a memory-side port.
type MemRequest struct {
	// ID is chosen by the wrapper and echoed back on the response.
	ID uint64
	// Addr is the model-visible address (virtual if a TLB is attached).
	Addr uint64
	// Size in bytes.
	Size int
	// Write selects store vs load; Data holds store payload.
	Write bool
	Data  []byte
	// Port selects which memory-side port to use (0..NumMemPorts-1).
	Port int
}

// MemResponse returns load data (or a store ack) to the model.
type MemResponse struct {
	ID    uint64
	Write bool
	Data  []byte
	// Latency is the measured round-trip in ticks, for model-side profiling.
	Latency sim.Tick
}

// CPURequest is a request that arrived on a CPU-side port (e.g. a core
// programming the PMU's AXI registers).
type CPURequest struct {
	ID    uint64
	Port  int
	Addr  uint64
	Size  int
	Write bool
	Data  []byte
}

// CPUResponse answers a CPURequest with the same ID.
type CPUResponse struct {
	ID   uint64
	Data []byte
}

// Input is the struct passed to Wrapper.Tick each model clock cycle,
// mirroring the paper's input struct.
type Input struct {
	// Cycle counts wrapper ticks since reset.
	Cycle uint64
	// MemResponses completed since the previous tick, in completion order.
	MemResponses []MemResponse
	// CPURequests received since the previous tick, in arrival order.
	CPURequests []CPURequest
	// User carries model-specific payload (e.g. PMU event bits).
	User any
}

// Output is returned by Wrapper.Tick, mirroring the paper's output struct.
type Output struct {
	// MemRequests for the framework to issue (subject to MaxInflight).
	MemRequests []MemRequest
	// CPUResponses completing earlier CPURequests.
	CPUResponses []CPUResponse
	// Interrupt level; a rising edge triggers the IRQ callback.
	Interrupt bool
	// User carries model-specific payload.
	User any
}

// Wrapper is the shared-library interface of §3.3: every RTL model is
// wrapped behind tick and reset entry points.
type Wrapper interface {
	// Tick advances the model one clock and exchanges interface data.
	Tick(in *Input) *Output
	// Reset restores the model's power-on state.
	Reset()
	// Name identifies the model in stats and errors.
	Name() string
}

// Config parameterises an RTLObject.
type Config struct {
	Name string
	// ClockDivider slows the RTL model relative to the core clock domain
	// (the paper's frequency-ratio parameter). 1 = same frequency; 2 = the
	// PMU/NVDLA case (1 GHz under 2 GHz cores).
	ClockDivider uint64
	// MaxInflight caps outstanding memory-side requests (0 = unlimited).
	MaxInflight int
	// TLB, when non-nil, translates model addresses before issue.
	TLB TLB
}

// Stats aggregates RTLObject activity counters.
type Stats struct {
	Ticks         uint64
	MemReads      uint64
	MemWrites     uint64
	MemReadBytes  uint64
	MemWriteBytes uint64
	CPURequests   uint64
	Interrupts    uint64
	StallCycles   uint64 // cycles with requests blocked on MaxInflight
	TotalMemLat   sim.Tick
	RetiredMem    uint64
}

// AvgMemLatency returns the mean memory round-trip in ticks.
func (s *Stats) AvgMemLatency() float64 {
	if s.RetiredMem == 0 {
		return 0
	}
	return float64(s.TotalMemLat) / float64(s.RetiredMem)
}

// RTLObject bridges one Wrapper into the SoC.
type RTLObject struct {
	cfg     Config
	q       *sim.EventQueue
	dom     *sim.ClockDomain
	wrapper Wrapper
	ticker  *sim.Ticker

	cpuPorts [NumCPUPorts]*port.ResponsePort
	memPorts [NumMemPorts]*port.RequestPort
	respQs   [NumCPUPorts]*port.RespQueue

	// Wrapper exchange state. pendingCPU/pendingResp backing arrays are
	// reused across ticks (reset to length zero after each exchange); the
	// Input handed to the wrapper is therefore only valid during the Tick
	// call, matching the paper's void*-struct protocol. Wrappers that keep
	// entries beyond the call must copy the elements (element copies stay
	// valid — only the backing array is recycled).
	pendingCPU  []CPURequest
	pendingResp []MemResponse
	in          Input                   // reused Input handed to Wrapper.Tick
	cpuPkts     map[uint64]*port.Packet // CPU request ID -> original packet
	cpuPktPort  map[uint64]int
	nextCPUID   uint64

	// Memory-side outstanding and overflow queue. sendQ drains from
	// sendHead instead of re-slicing so the backing array is reused;
	// txnFree recycles memTxn records and pool recycles DMA read packets
	// (write packets stay unpooled: their Data aliases the wrapper's
	// request buffer, which checkpoints and posted-write queues may retain).
	inflight map[uint64]*memTxn
	sendQ    []MemRequest
	sendHead int
	txnFree  []*memTxn
	pool     port.PacketPool
	blocked  [NumMemPorts]bool

	irqLevel bool
	irqFn    func(level bool)

	// trace is the RTL debug-flag logger (nil = off; see AttachTracer).
	trace *obs.Logger

	stats Stats
}

type memTxn struct {
	req    MemRequest
	issued sim.Tick
}

// New creates an RTLObject clocked from coreDom divided by cfg.ClockDivider.
// The object does not start ticking until Start is called (after reset and
// binding).
func New(cfg Config, coreDom *sim.ClockDomain, w Wrapper) *RTLObject {
	if cfg.ClockDivider == 0 {
		cfg.ClockDivider = 1
	}
	r := &RTLObject{
		cfg:        cfg,
		q:          coreDom.Queue(),
		dom:        coreDom.Derived(cfg.Name+".clk", cfg.ClockDivider),
		wrapper:    w,
		cpuPkts:    map[uint64]*port.Packet{},
		cpuPktPort: map[uint64]int{},
		inflight:   map[uint64]*memTxn{},
	}
	for i := 0; i < NumCPUPorts; i++ {
		i := i
		r.cpuPorts[i] = port.NewResponsePort(fmt.Sprintf("%s.cpu_side[%d]", cfg.Name, i), &cpuSide{r, i})
		r.respQs[i] = port.NewRespQueue(fmt.Sprintf("%s.cpu_side[%d]", cfg.Name, i), r.q, r.cpuPorts[i])
		r.respQs[i].SetOwner(r.q.Owner(cfg.Name, "resp-drain"))
	}
	for i := 0; i < NumMemPorts; i++ {
		i := i
		r.memPorts[i] = port.NewRequestPort(fmt.Sprintf("%s.mem_side[%d]", cfg.Name, i), &memSide{r, i})
	}
	r.ticker = sim.NewTicker(cfg.Name+".tick", r.dom, sim.PriDefault, r.tick)
	r.ticker.SetOwner(r.q.Owner(cfg.Name, "tick"))
	return r
}

// Name returns the configured name.
func (r *RTLObject) Name() string { return r.cfg.Name }

// SetPacketIDSpace namespaces the object's DMA packet IDs under the given
// non-zero space tag (port.PacketPool.SetIDSpace). The SoC assigns every
// RTLObject its own space so the object's ID sequence depends only on its own
// allocation order; the IDs of its in-flight packets are part of the pinned
// checkpoint bytes and StateHash. Must be called before Start.
func (r *RTLObject) SetPacketIDSpace(space uint64) { r.pool.SetIDSpace(space) }

// Stats returns a snapshot of activity counters.
func (r *RTLObject) Stats() Stats { return r.stats }

// Wrapper returns the wrapped model (for testbench-style inspection).
func (r *RTLObject) Wrapper() Wrapper { return r.wrapper }

// CPUPort returns CPU-side response port i, for binding SoC masters.
func (r *RTLObject) CPUPort(i int) *port.ResponsePort { return r.cpuPorts[i] }

// MemPort returns memory-side request port i, for binding toward caches or
// memory controllers.
func (r *RTLObject) MemPort(i int) *port.RequestPort { return r.memPorts[i] }

// OnInterrupt registers the IRQ edge callback (e.g. the CPU's interrupt pin).
func (r *RTLObject) OnInterrupt(fn func(level bool)) { r.irqFn = fn }

// Start resets the wrapper and begins ticking at the next model clock edge.
func (r *RTLObject) Start() {
	r.wrapper.Reset()
	r.ticker.Start()
}

// Stop halts the tick event; outstanding memory responses are still
// delivered to the wrapper on a subsequent Start.
func (r *RTLObject) Stop() { r.ticker.Stop() }

// tick is the per-model-cycle event: exchange structs with the wrapper and
// move packets (§3.4's tick event function).
func (r *RTLObject) tick(cycle uint64) bool {
	r.in = Input{
		Cycle:        cycle,
		MemResponses: r.pendingResp,
		CPURequests:  r.pendingCPU,
	}
	// Keep the backing arrays: the wrapper consumes the batch during Tick,
	// so the next tick can refill the same storage.
	r.pendingResp = r.pendingResp[:0]
	r.pendingCPU = r.pendingCPU[:0]
	out := r.wrapper.Tick(&r.in)
	r.stats.Ticks++
	if out != nil {
		for _, resp := range out.CPUResponses {
			r.completeCPU(resp)
		}
		if len(out.MemRequests) > 0 {
			// Compact the drained prefix before growing the queue so the
			// backing array is reused instead of reallocated.
			if r.sendHead > 0 && len(r.sendQ)+len(out.MemRequests) > cap(r.sendQ) {
				n := copy(r.sendQ, r.sendQ[r.sendHead:])
				for i := n; i < len(r.sendQ); i++ {
					r.sendQ[i] = MemRequest{}
				}
				r.sendQ = r.sendQ[:n]
				r.sendHead = 0
			}
			r.sendQ = append(r.sendQ, out.MemRequests...)
		}
		if out.Interrupt != r.irqLevel {
			r.irqLevel = out.Interrupt
			if r.trace.On() {
				r.trace.Logf("irq %v at model cycle %d", out.Interrupt, cycle)
			}
			if out.Interrupt {
				r.stats.Interrupts++
			}
			if r.irqFn != nil {
				r.irqFn(out.Interrupt)
			}
		}
	}
	r.pumpMem()
	return true
}

// pumpMem issues queued memory requests subject to the in-flight cap and
// port back-pressure.
func (r *RTLObject) pumpMem() {
	for r.sendHead < len(r.sendQ) {
		if r.cfg.MaxInflight > 0 && len(r.inflight) >= r.cfg.MaxInflight {
			r.stats.StallCycles++
			return
		}
		req := r.sendQ[r.sendHead]
		if req.Port < 0 || req.Port >= NumMemPorts {
			panic(fmt.Sprintf("rtlobject %s: bad mem port %d", r.cfg.Name, req.Port))
		}
		if r.blocked[req.Port] {
			return
		}
		addr := req.Addr
		if r.cfg.TLB != nil {
			addr = r.cfg.TLB.Translate(addr)
		}
		var pkt *port.Packet
		if req.Write {
			// Unpooled (the packet aliases the wrapper's payload buffer) but
			// minted from the pool's ID space so reads and writes share one
			// deterministic per-object sequence.
			pkt = r.pool.NewWrite(addr, req.Data)
		} else {
			pkt = r.pool.GetRead(addr, req.Size)
		}
		pkt.ReqTick = r.q.Now()
		pkt.PushSenderState(req.ID)
		if !r.memPorts[req.Port].SendTimingReq(pkt) {
			pkt.PopSenderState()
			pkt.Release()
			r.blocked[req.Port] = true
			return
		}
		if r.trace.On() {
			r.trace.Logf("mem issue id=%d port=%d write=%v addr=%#x (%d inflight)",
				req.ID, req.Port, req.Write, addr, len(r.inflight)+1)
		}
		var txn *memTxn
		if n := len(r.txnFree); n > 0 {
			txn = r.txnFree[n-1]
			r.txnFree = r.txnFree[:n-1]
			*txn = memTxn{req: req, issued: r.q.Now()}
		} else {
			txn = &memTxn{req: req, issued: r.q.Now()}
		}
		r.inflight[req.ID] = txn
		if req.Write {
			r.stats.MemWrites++
			r.stats.MemWriteBytes += uint64(len(req.Data))
		} else {
			r.stats.MemReads++
			r.stats.MemReadBytes += uint64(req.Size)
		}
		// Drain from the head, clearing the slot so the retired request's
		// Data buffer is not pinned by the queue.
		r.sendQ[r.sendHead] = MemRequest{}
		r.sendHead++
		if r.sendHead == len(r.sendQ) {
			r.sendQ = r.sendQ[:0]
			r.sendHead = 0
		}
	}
}

// InflightCount reports currently outstanding memory requests.
func (r *RTLObject) InflightCount() int { return len(r.inflight) }

func (r *RTLObject) completeCPU(resp CPUResponse) {
	pkt, ok := r.cpuPkts[resp.ID]
	if !ok {
		panic(fmt.Sprintf("rtlobject %s: CPU response for unknown id %d", r.cfg.Name, resp.ID))
	}
	delete(r.cpuPkts, resp.ID)
	pi := r.cpuPktPort[resp.ID]
	delete(r.cpuPktPort, resp.ID)
	pkt.MakeResponse()
	if pkt.Cmd == port.ReadResp {
		pkt.AllocateData()
		copy(pkt.Data, resp.Data)
	}
	r.respQs[pi].Schedule(pkt, r.q.Now())
}

// cpuSide adapts one CPU-side response port to the RTLObject.
type cpuSide struct {
	r *RTLObject
	i int
}

func (c *cpuSide) RecvTimingReq(pkt *port.Packet) bool {
	r := c.r
	r.nextCPUID++
	id := r.nextCPUID
	req := CPURequest{
		ID:    id,
		Port:  c.i,
		Addr:  pkt.Addr,
		Size:  pkt.Size,
		Write: pkt.Cmd.IsWrite(),
	}
	if pkt.Cmd.IsWrite() {
		req.Data = append([]byte(nil), pkt.Data...)
	}
	if pkt.NeedsResponse() {
		r.cpuPkts[id] = pkt
		r.cpuPktPort[id] = c.i
	}
	r.pendingCPU = append(r.pendingCPU, req)
	r.stats.CPURequests++
	return true
}

func (c *cpuSide) RecvRespRetry() { c.r.respQs[c.i].RecvRespRetry() }

// memSide adapts one memory-side request port to the RTLObject.
type memSide struct {
	r *RTLObject
	i int
}

func (m *memSide) RecvTimingResp(pkt *port.Packet) bool {
	r := m.r
	id := pkt.PopSenderState().(uint64)
	txn, ok := r.inflight[id]
	if !ok {
		panic(fmt.Sprintf("rtlobject %s: memory response for unknown id %d", r.cfg.Name, id))
	}
	delete(r.inflight, id)
	lat := r.q.Now() - txn.issued
	if r.trace.On() {
		r.trace.Logf("mem done id=%d write=%v latency=%d", id, txn.req.Write, uint64(lat))
	}
	r.stats.TotalMemLat += lat
	r.stats.RetiredMem++
	resp := MemResponse{ID: id, Write: txn.req.Write, Latency: lat}
	if pkt.Cmd == port.ReadResp {
		// Individually allocated: wrappers may retain response payloads.
		resp.Data = append([]byte(nil), pkt.Data...)
	}
	txn.req = MemRequest{} // drop the Data reference before recycling
	r.txnFree = append(r.txnFree, txn)
	// The payload has been copied out; recycle the pooled read packet
	// (no-op for unpooled write packets).
	pkt.Release()
	r.pendingResp = append(r.pendingResp, resp)
	// Retiring a request may unblock the overflow queue immediately.
	r.pumpMem()
	return true
}

func (m *memSide) RecvReqRetry() {
	m.r.blocked[m.i] = false
	m.r.pumpMem()
}
