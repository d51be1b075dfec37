package rtl

import (
	"fmt"
	"sort"

	"gem5rtl/internal/sim"
)

// Model is a compiled, simulatable instance of a Circuit — the analogue of a
// Verilated model object. Construction levelises the combinational logic
// once (topological order over assignment dependencies), so each cycle is a
// single linear pass rather than a fixed-point iteration; a combinational
// loop is rejected at compile time. Model is not safe for concurrent use.
type Model struct {
	c      *Circuit
	engine Engine
	vals   []uint64
	masks  []uint64
	mems   [][]uint64
	order  []int // indices into c.Combs in evaluation order
	cycle  uint64

	// backend, when non-nil, replaces the closure-compiled hot path below
	// for Eval/Tick (see Backend). vals then aliases backend.Vals(), so the
	// architectural surface (Peek, SetInput, VCD, checkpoints, fault
	// injection) is engine-independent by construction.
	backend Backend

	// nextBuf is scratch space reused across Ticks to avoid per-cycle
	// allocation of the register next-state vector.
	nextBuf []uint64
	// memwBuf is scratch space reused across Ticks for captured memory
	// writes (pre-edge values), sized once to the write-port count.
	memwBuf []pendingMemWrite

	// Closure-compiled hot path (see compile.go).
	combFns []func()
	seqFns  []evalFn
	memwFns []compiledMemWrite

	inputs  map[string]SigID
	outputs map[string]SigID

	vcd *VCDWriter
}

// PhaseProfiled is implemented by engine backends that sub-attribute their
// tick phases (comb settle, sequential update, memory write ports) to the
// self-profiler. The bytecode engine does; the closure reference engine is
// never profiled.
type PhaseProfiled interface {
	AttachProfiler(p *sim.Profiler, comb, seq, memw sim.OwnerID)
}

// AttachProfiler enables per-phase self-profiling of this model's ticks:
// host time inside Tick is sub-attributed to the given comb/seq/memw owners
// so an RTL-heavy simulation point reads "pmu/rtl-comb" rather than just
// "slow". Phase counts reflect the work the engine really did (activity
// gating enters fewer phases), while results stay bit-exact. It does
// nothing on a closure reference model.
func (m *Model) AttachProfiler(p *sim.Profiler, comb, seq, memw sim.OwnerID) {
	if b, ok := m.backend.(PhaseProfiled); ok {
		b.AttachProfiler(p, comb, seq, memw)
	}
}

// pendingMemWrite is a memory write captured with pre-edge values, applied
// at commit time (non-blocking semantics).
type pendingMemWrite struct {
	mem  MemID
	addr int
	data uint64
}

// Compile validates, levelises, and instantiates a circuit on the closure
// reference engine. Production models run the bytecode engine
// (rtlc.CompileEngine); this one is the oracle they are tested against.
func Compile(c *Circuit) (*Model, error) { return CompileBackend(c, EngineClosure, nil) }

// CompileBackend validates, levelises, and instantiates a circuit on the
// Backend that build constructs, or on the closure reference engine when
// build is nil. mems is the Model's memory storage (one word slice per
// circuit memory), which the backend must share — memory state, like Vals,
// has a single copy. Whatever the engine, the Model is bit-exact: same
// values, VCD, checkpoints, state hashes.
func CompileBackend(c *Circuit, engine Engine, build func(c *Circuit, mems [][]uint64) (Backend, error)) (*Model, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	order, err := levelize(c)
	if err != nil {
		return nil, err
	}
	m := &Model{
		c:       c,
		engine:  engine,
		masks:   make([]uint64, len(c.Signals)),
		mems:    make([][]uint64, len(c.Mems)),
		order:   order,
		inputs:  map[string]SigID{},
		outputs: map[string]SigID{},
	}
	for i, s := range c.Signals {
		m.masks[i] = Mask(s.Width)
		switch s.Kind {
		case SigInput:
			m.inputs[s.Name] = SigID(i)
		case SigOutput:
			m.outputs[s.Name] = SigID(i)
		}
	}
	for i, mem := range c.Mems {
		m.mems[i] = make([]uint64, mem.Depth)
	}
	if build == nil {
		m.vals = make([]uint64, len(c.Signals))
		m.buildFns()
	} else {
		be, err := build(c, m.mems)
		if err != nil {
			return nil, fmt.Errorf("rtl: engine %q: %w", engine, err)
		}
		if got := len(be.Vals()); got != len(c.Signals) {
			return nil, fmt.Errorf("rtl: engine %q returned %d value slots for %d signals",
				engine, got, len(c.Signals))
		}
		m.vals = be.Vals()
		m.backend = be
	}
	m.Reset()
	return m, nil
}

// MustCompile is Compile panicking on error; for tests and embedded designs.
func MustCompile(c *Circuit) *Model {
	m, err := Compile(c)
	if err != nil {
		panic(err)
	}
	return m
}

// Engine reports which evaluation engine this model was compiled for.
func (m *Model) Engine() Engine { return m.engine }

// SeqSkips reports how many sequential next-state evaluations the engine has
// elided through activity gating since compile (always 0 for the closure
// reference engine). Skips are a pure performance effect; they never change
// simulation results.
func (m *Model) SeqSkips() uint64 {
	if m.backend != nil {
		return m.backend.Skipped()
	}
	return 0
}

// invalidate tells the active backend that state was mutated behind its back
// (reset, checkpoint restore, fault injection, memory poke).
func (m *Model) invalidate() {
	if m.backend != nil {
		m.backend.Invalidate()
	}
}

// levelize orders combinational assignments so every assignment runs after
// the assignments producing the signals it reads. Registers and inputs are
// sources and impose no ordering. Returns an error naming a signal on any
// combinational cycle.
func levelize(c *Circuit) ([]int, error) {
	producer := make(map[SigID]int, len(c.Combs)) // signal -> comb index
	for i, a := range c.Combs {
		producer[a.Dst] = i
	}
	adj := make([][]int, len(c.Combs)) // edges: dependency -> dependent
	indeg := make([]int, len(c.Combs))
	var deps []SigID
	for i, a := range c.Combs {
		deps = deps[:0]
		deps = collectRefs(a.Src, deps)
		seen := map[int]bool{}
		for _, d := range deps {
			if p, ok := producer[d]; ok && !seen[p] {
				seen[p] = true
				adj[p] = append(adj[p], i)
				indeg[i]++
			}
		}
	}
	// Kahn's algorithm with deterministic ordering.
	ready := make([]int, 0, len(c.Combs))
	for i := range c.Combs {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	sort.Ints(ready)
	order := make([]int, 0, len(c.Combs))
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		for _, d := range adj[n] {
			indeg[d]--
			if indeg[d] == 0 {
				ready = append(ready, d)
			}
		}
	}
	if len(order) != len(c.Combs) {
		for i := range c.Combs {
			if indeg[i] > 0 {
				return nil, fmt.Errorf("rtl: combinational loop through signal %q",
					c.Signals[c.Combs[i].Dst].Name)
			}
		}
	}
	return order, nil
}

// collectRefs appends the IDs of all signals read by e.
func collectRefs(e Expr, out []SigID) []SigID {
	switch v := e.(type) {
	case *Const:
	case *Ref:
		out = append(out, v.Sig)
	case *Unary:
		out = collectRefs(v.X, out)
	case *Binary:
		out = collectRefs(v.X, out)
		out = collectRefs(v.Y, out)
	case *Mux:
		out = collectRefs(v.Cond, out)
		out = collectRefs(v.T, out)
		out = collectRefs(v.F, out)
	case *Slice:
		out = collectRefs(v.X, out)
	case *Index:
		out = collectRefs(v.X, out)
		out = collectRefs(v.Bit, out)
	case *Concat:
		for _, p := range v.Parts {
			out = collectRefs(p, out)
		}
	case *MemRead:
		out = collectRefs(v.Addr, out)
	}
	return out
}

// Circuit returns the underlying circuit.
func (m *Model) Circuit() *Circuit { return m.c }

// Cycle returns the number of Tick calls since the last Reset.
func (m *Model) Cycle() uint64 { return m.cycle }

// Reset restores every register to its Init value, re-initialises memories,
// zeroes inputs, and settles the combinational logic — the `reset` entry
// point the paper requires every shared-library wrapper to provide.
func (m *Model) Reset() {
	// Every signal starts at its Init value (zero for wires and inputs;
	// seq-driven outputs carry a register init like any other flop). The
	// Eval below overwrites comb-driven signals.
	for i, s := range m.c.Signals {
		m.vals[i] = s.Init & m.masks[i]
	}
	for i, mem := range m.c.Mems {
		words := m.mems[i]
		for j := range words {
			words[j] = 0
		}
		copy(words, mem.Init)
	}
	m.cycle = 0
	m.invalidate()
	m.Eval()
}

// SetInput drives an input port; panics on unknown name or non-input.
func (m *Model) SetInput(name string, val uint64) {
	id, ok := m.inputs[name]
	if !ok {
		panic(fmt.Sprintf("rtl: %q is not an input of %q", name, m.c.Name))
	}
	m.vals[id] = val & m.masks[id]
}

// SetInputID drives an input by ID (fast path for wrappers).
func (m *Model) SetInputID(id SigID, val uint64) { m.vals[id] = val & m.masks[id] }

// InputID resolves an input port name to its SigID.
func (m *Model) InputID(name string) SigID {
	id, ok := m.inputs[name]
	if !ok {
		panic(fmt.Sprintf("rtl: %q is not an input of %q", name, m.c.Name))
	}
	return id
}

// OutputID resolves an output port name to its SigID.
func (m *Model) OutputID(name string) SigID {
	id, ok := m.outputs[name]
	if !ok {
		panic(fmt.Sprintf("rtl: %q is not an output of %q", name, m.c.Name))
	}
	return id
}

// Peek reads any signal's current value by name; panics on unknown name.
func (m *Model) Peek(name string) uint64 {
	id := m.c.SignalByName(name)
	if id < 0 {
		panic(fmt.Sprintf("rtl: no signal %q in %q", name, m.c.Name))
	}
	return m.vals[id]
}

// PeekID reads any signal's current value by ID.
func (m *Model) PeekID(id SigID) uint64 { return m.vals[id] }

// PeekMem reads a memory word (for testbenches); out of range reads zero.
func (m *Model) PeekMem(id MemID, addr int) uint64 {
	w := m.mems[id]
	if addr < 0 || addr >= len(w) {
		return 0
	}
	return w[addr]
}

// PokeMem writes a memory word directly (testbench backdoor).
func (m *Model) PokeMem(id MemID, addr int, val uint64) {
	w := m.mems[id]
	if addr >= 0 && addr < len(w) {
		w[addr] = val & Mask(m.c.Mems[id].Width)
		m.invalidate()
	}
}

// Eval settles the combinational logic against current inputs and register
// state: one linear pass of compiled assignments in levelised order (closure
// calls on the reference engine, bytecode on a backend).
func (m *Model) Eval() {
	if m.backend != nil {
		m.backend.Eval()
		return
	}
	for _, fn := range m.combFns {
		fn()
	}
}

// EvalIterative is the naive fixed-point evaluation strategy kept for the
// ablation benchmark in DESIGN.md (§5.1): it re-evaluates all combinational
// assignments in declaration order until no value changes.
func (m *Model) EvalIterative() int {
	passes := 0
	for {
		passes++
		changed := false
		for i := range m.c.Combs {
			a := &m.c.Combs[i]
			nv := m.eval(a.Src) & m.masks[a.Dst]
			if nv != m.vals[a.Dst] {
				m.vals[a.Dst] = nv
				changed = true
			}
		}
		if !changed || passes > len(m.c.Combs)+2 {
			return passes
		}
	}
}

// Tick advances the model one clock cycle: settle combinational logic,
// capture every register's next value and memory write using pre-edge
// state, commit, and settle again so outputs reflect the new state. This is
// the `tick` entry point of the paper's shared-library interface.
func (m *Model) Tick() {
	if m.backend != nil {
		m.backend.Tick()
	} else {
		m.closureTick()
	}
	m.cycle++
	if m.vcd != nil && m.vcd.enabled {
		m.vcd.dump(m)
	}
}

// closureTick is one clock cycle on the closure reference engine: eval,
// capture with pre-edge values, commit, eval.
func (m *Model) closureTick() {
	m.Eval()
	// Capture next-state with pre-edge values (non-blocking semantics).
	// memwBuf is reused across ticks so the hot path stays allocation-free.
	m.memwBuf = m.memwBuf[:0]
	for i := range m.memwFns {
		w := &m.memwFns[i]
		if w.en() != 0 {
			addr := int(w.addr())
			if addr >= 0 && addr < m.c.Mems[w.mem].Depth {
				m.memwBuf = append(m.memwBuf, pendingMemWrite{w.mem, addr, w.data() & w.mask})
			}
		}
	}
	if m.nextBuf == nil || len(m.nextBuf) < len(m.seqFns) {
		m.nextBuf = make([]uint64, len(m.seqFns))
	}
	for i, fn := range m.seqFns {
		m.nextBuf[i] = fn()
	}
	// Commit.
	for i := range m.c.Seqs {
		m.vals[m.c.Seqs[i].Dst] = m.nextBuf[i]
	}
	for _, w := range m.memwBuf {
		m.mems[w.mem][w.addr] = w.data
	}
	m.Eval()
}

// eval evaluates an expression against current signal values.
func (m *Model) eval(e Expr) uint64 {
	switch v := e.(type) {
	case *Const:
		return v.Val
	case *Ref:
		return m.vals[v.Sig]
	case *Unary:
		x := m.eval(v.X)
		switch v.Op {
		case UnNot:
			return ^x & Mask(v.W)
		case UnNeg:
			return (-x) & Mask(v.W)
		case UnLNot:
			if x == 0 {
				return 1
			}
			return 0
		case UnRedAnd:
			if x == Mask(v.X.Width()) {
				return 1
			}
			return 0
		case UnRedOr:
			if x != 0 {
				return 1
			}
			return 0
		case UnRedXor:
			var p uint64
			for t := x; t != 0; t &= t - 1 {
				p ^= 1
			}
			return p
		}
	case *Binary:
		x := m.eval(v.X)
		y := m.eval(v.Y)
		mask := Mask(v.W)
		switch v.Op {
		case OpAdd:
			return (x + y) & mask
		case OpSub:
			return (x - y) & mask
		case OpMul:
			return (x * y) & mask
		case OpDiv:
			if y == 0 {
				return mask
			}
			return (x / y) & mask
		case OpMod:
			if y == 0 {
				return x & mask
			}
			return (x % y) & mask
		case OpAnd:
			return x & y & mask
		case OpOr:
			return (x | y) & mask
		case OpXor:
			return (x ^ y) & mask
		case OpShl:
			if y >= 64 {
				return 0
			}
			return (x << y) & mask
		case OpShr:
			if y >= 64 {
				return 0
			}
			return (x >> y) & mask
		case OpSra:
			sx := SignExtend(x, v.X.Width())
			if y >= 64 {
				y = 63
			}
			return uint64(sx>>y) & mask
		case OpEq:
			return b2u(x == y)
		case OpNe:
			return b2u(x != y)
		case OpLt:
			return b2u(x < y)
		case OpLe:
			return b2u(x <= y)
		case OpGt:
			return b2u(x > y)
		case OpGe:
			return b2u(x >= y)
		case OpSLt:
			return b2u(SignExtend(x, v.X.Width()) < SignExtend(y, v.Y.Width()))
		case OpSLe:
			return b2u(SignExtend(x, v.X.Width()) <= SignExtend(y, v.Y.Width()))
		case OpSGt:
			return b2u(SignExtend(x, v.X.Width()) > SignExtend(y, v.Y.Width()))
		case OpSGe:
			return b2u(SignExtend(x, v.X.Width()) >= SignExtend(y, v.Y.Width()))
		case OpLAnd:
			return b2u(x != 0 && y != 0)
		case OpLOr:
			return b2u(x != 0 || y != 0)
		}
	case *Mux:
		if m.eval(v.Cond) != 0 {
			return m.eval(v.T) & Mask(v.W)
		}
		return m.eval(v.F) & Mask(v.W)
	case *Slice:
		return (m.eval(v.X) >> uint(v.Lo)) & Mask(v.Hi-v.Lo+1)
	case *Index:
		bitPos := m.eval(v.Bit)
		if bitPos >= uint64(v.X.Width()) {
			return 0
		}
		return (m.eval(v.X) >> bitPos) & 1
	case *Concat:
		var acc uint64
		for _, p := range v.Parts {
			acc = acc<<uint(p.Width()) | m.eval(p)
		}
		return acc
	case *MemRead:
		addr := m.eval(v.Addr)
		words := m.mems[v.Mem]
		if addr >= uint64(len(words)) {
			return 0
		}
		return words[addr]
	}
	panic(fmt.Sprintf("rtl: eval of unknown node %T", e))
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
