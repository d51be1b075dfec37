// Package rtl implements gem5rtl's register-transfer-level model engine: the
// role Verilator and GHDL play in the paper. HDL frontends (internal/verilog,
// internal/vhdl) elaborate source text into this package's intermediate
// representation (a Circuit of signals, combinational assignments, registers
// and memories); the engine then levelises the combinational logic and
// evaluates the model cycle by cycle, exactly like a Verilated C++ model's
// eval loop. The engine also provides the usability features the paper calls
// out: VCD waveform tracing that can be enabled/disabled at runtime, and
// checkpoint save/restore.
//
// Values are limited to 64 bits per signal; wider datapaths are expressed as
// multiple signals or memories (the same restriction early Verilator versions
// imposed per output word).
package rtl

import "fmt"

// SigID identifies a signal within a Circuit.
type SigID int

// MemID identifies a memory array within a Circuit.
type MemID int

// SigKind classifies a signal's driver.
type SigKind int

// Signal kinds.
const (
	SigWire   SigKind = iota // driven by a combinational assignment
	SigInput                 // driven from outside the circuit
	SigOutput                // a wire exported as a port
	SigReg                   // driven by a sequential assignment (flip-flop)
)

func (k SigKind) String() string {
	switch k {
	case SigWire:
		return "wire"
	case SigInput:
		return "input"
	case SigOutput:
		return "output"
	case SigReg:
		return "reg"
	}
	return "?"
}

// Signal describes one named net of 1..64 bits.
type Signal struct {
	Name  string
	Width int
	Kind  SigKind
	Init  uint64 // reset/initial value (registers only)
}

// Mem describes a memory array (e.g. reg [31:0] m [0:1023]).
type Mem struct {
	Name  string
	Width int
	Depth int
	Init  []uint64 // optional initial contents (len <= Depth)
}

// Op enumerates binary operators.
type Op int

// Binary operators. Comparison and logical operators produce 1-bit results;
// arithmetic/bitwise operators produce results at the node's width.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv // division by zero yields all-ones, matching Verilog's x -> engine convention
	OpMod // modulo by zero yields the dividend
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr // logical
	OpSra // arithmetic (sign of X's width)
	OpEq
	OpNe
	OpLt // unsigned
	OpLe
	OpGt
	OpGe
	OpSLt // signed
	OpSLe
	OpSGt
	OpSGe
	OpLAnd
	OpLOr
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpAnd: "&", OpOr: "|", OpXor: "^", OpShl: "<<", OpShr: ">>", OpSra: ">>>",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpSLt: "s<", OpSLe: "s<=", OpSGt: "s>", OpSGe: "s>=", OpLAnd: "&&", OpLOr: "||",
}

func (o Op) String() string { return opNames[o] }

// UnOp enumerates unary operators.
type UnOp int

// Unary operators.
const (
	UnNot    UnOp = iota // bitwise complement
	UnNeg                // two's complement negate
	UnLNot               // logical not (1-bit)
	UnRedAnd             // reduction AND (1-bit)
	UnRedOr              // reduction OR (1-bit)
	UnRedXor             // reduction XOR (1-bit)
)

// Expr is a combinational expression tree node. Every node has a fixed
// result width; evaluation zero-extends operands to 64 bits, computes, and
// masks the result to the node width.
type Expr interface {
	// Width returns the bit width of the expression's result.
	Width() int
}

// Const is a literal value.
type Const struct {
	Val uint64
	W   int
}

// Width returns the literal's width.
func (c *Const) Width() int { return c.W }

// Ref reads a signal's current value.
type Ref struct {
	Sig SigID
	W   int
}

// Width returns the referenced signal's width.
func (r *Ref) Width() int { return r.W }

// Unary applies a unary operator.
type Unary struct {
	Op UnOp
	X  Expr
	W  int
}

// Width returns the result width.
func (u *Unary) Width() int { return u.W }

// Binary applies a binary operator.
type Binary struct {
	Op   Op
	X, Y Expr
	W    int
}

// Width returns the result width.
func (b *Binary) Width() int { return b.W }

// Mux selects T when Cond is non-zero, else F.
type Mux struct {
	Cond, T, F Expr
	W          int
}

// Width returns the result width.
func (m *Mux) Width() int { return m.W }

// Slice extracts bits [Hi:Lo] (inclusive, Verilog order) of X.
type Slice struct {
	X      Expr
	Lo, Hi int
}

// Width returns Hi-Lo+1.
func (s *Slice) Width() int { return s.Hi - s.Lo + 1 }

// Index extracts the single bit X[Bit] with a dynamic index; out-of-range
// indices read as zero.
type Index struct {
	X, Bit Expr
}

// Width returns 1.
func (i *Index) Width() int { return 1 }

// Concat concatenates parts; Parts[0] holds the most significant bits,
// matching Verilog's {a, b} ordering.
type Concat struct {
	Parts []Expr
	W     int
}

// Width returns the total width.
func (c *Concat) Width() int { return c.W }

// MemRead reads word Addr of a memory combinationally (asynchronous read
// port). Out-of-range addresses read as zero.
type MemRead struct {
	Mem  MemID
	Addr Expr
	W    int
}

// Width returns the memory word width.
func (m *MemRead) Width() int { return m.W }

// Assign is a combinational assignment Dst = Src evaluated every delta.
type Assign struct {
	Dst SigID
	Src Expr
}

// SeqAssign is a non-blocking register update Dst <= Next applied at every
// clock tick (posedge of the circuit's single implicit clock).
type SeqAssign struct {
	Dst  SigID
	Next Expr
}

// MemWrite is a clocked memory write: if En evaluates non-zero at a tick,
// Mem[Addr] <= Data.
type MemWrite struct {
	Mem            MemID
	Addr, Data, En Expr
}

// Circuit is a flattened, single-clock RTL design ready for simulation.
type Circuit struct {
	Name      string
	Signals   []Signal
	Mems      []Mem
	Combs     []Assign
	Seqs      []SeqAssign
	MemWrites []MemWrite
}

// SignalByName returns the ID of the named signal, or -1.
func (c *Circuit) SignalByName(name string) SigID {
	for i := range c.Signals {
		if c.Signals[i].Name == name {
			return SigID(i)
		}
	}
	return -1
}

// Mask returns the bit mask for a width (1..64).
func Mask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// SignExtend interprets v (of width w) as signed and extends it to 64 bits.
func SignExtend(v uint64, w int) int64 {
	if w >= 64 {
		return int64(v)
	}
	shift := uint(64 - w)
	return int64(v<<shift) >> shift
}

// Validate checks structural well-formedness: widths in range, single
// drivers, kinds consistent with drivers, and expression references in range.
func (c *Circuit) Validate() error {
	for i, s := range c.Signals {
		if s.Width < 1 || s.Width > 64 {
			return fmt.Errorf("rtl: signal %q width %d out of range [1,64]", s.Name, s.Width)
		}
		_ = i
	}
	for _, m := range c.Mems {
		if m.Width < 1 || m.Width > 64 || m.Depth < 1 {
			return fmt.Errorf("rtl: mem %q has bad shape %dx%d", m.Name, m.Depth, m.Width)
		}
		if len(m.Init) > m.Depth {
			return fmt.Errorf("rtl: mem %q init longer than depth", m.Name)
		}
	}
	drivers := make([]int, len(c.Signals))
	for _, a := range c.Combs {
		if int(a.Dst) >= len(c.Signals) {
			return fmt.Errorf("rtl: comb assign to out-of-range signal %d", a.Dst)
		}
		drivers[a.Dst]++
		// Wires and outputs may be combinationally driven; an output may
		// alternatively be a register (Verilog "output reg"), in which case
		// it is seq-driven instead.
		if k := c.Signals[a.Dst].Kind; k == SigInput || k == SigReg {
			return fmt.Errorf("rtl: comb assign to %s %q", k, c.Signals[a.Dst].Name)
		}
		if err := c.checkExpr(a.Src); err != nil {
			return err
		}
	}
	for _, a := range c.Seqs {
		if int(a.Dst) >= len(c.Signals) {
			return fmt.Errorf("rtl: seq assign to out-of-range signal %d", a.Dst)
		}
		drivers[a.Dst]++
		if k := c.Signals[a.Dst].Kind; k != SigReg && k != SigOutput {
			return fmt.Errorf("rtl: seq assign to non-reg %q (%s)", c.Signals[a.Dst].Name, k)
		}
		if err := c.checkExpr(a.Next); err != nil {
			return err
		}
	}
	for i, d := range drivers {
		if d > 1 {
			return fmt.Errorf("rtl: signal %q has %d drivers", c.Signals[i].Name, d)
		}
	}
	for _, w := range c.MemWrites {
		if int(w.Mem) >= len(c.Mems) {
			return fmt.Errorf("rtl: mem write to out-of-range mem %d", w.Mem)
		}
		for _, e := range []Expr{w.Addr, w.Data, w.En} {
			if err := c.checkExpr(e); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *Circuit) checkExpr(e Expr) error {
	switch v := e.(type) {
	case *Const:
		if v.W < 1 || v.W > 64 {
			return fmt.Errorf("rtl: const width %d out of range", v.W)
		}
	case *Ref:
		if int(v.Sig) < 0 || int(v.Sig) >= len(c.Signals) {
			return fmt.Errorf("rtl: ref to out-of-range signal %d", v.Sig)
		}
		if v.W != c.Signals[v.Sig].Width {
			return fmt.Errorf("rtl: ref to %q has width %d, signal is %d",
				c.Signals[v.Sig].Name, v.W, c.Signals[v.Sig].Width)
		}
	case *Unary:
		return c.checkExpr(v.X)
	case *Binary:
		if err := c.checkExpr(v.X); err != nil {
			return err
		}
		return c.checkExpr(v.Y)
	case *Mux:
		for _, x := range []Expr{v.Cond, v.T, v.F} {
			if err := c.checkExpr(x); err != nil {
				return err
			}
		}
	case *Slice:
		if v.Lo < 0 || v.Hi < v.Lo || v.Hi >= v.X.Width() {
			return fmt.Errorf("rtl: slice [%d:%d] out of range for width %d", v.Hi, v.Lo, v.X.Width())
		}
		return c.checkExpr(v.X)
	case *Index:
		if err := c.checkExpr(v.X); err != nil {
			return err
		}
		return c.checkExpr(v.Bit)
	case *Concat:
		total := 0
		for _, p := range v.Parts {
			if err := c.checkExpr(p); err != nil {
				return err
			}
			total += p.Width()
		}
		if total != v.W {
			return fmt.Errorf("rtl: concat width %d != sum of parts %d", v.W, total)
		}
		if total > 64 {
			return fmt.Errorf("rtl: concat wider than 64 bits (%d)", total)
		}
	case *MemRead:
		if int(v.Mem) < 0 || int(v.Mem) >= len(c.Mems) {
			return fmt.Errorf("rtl: memread of out-of-range mem %d", v.Mem)
		}
		return c.checkExpr(v.Addr)
	default:
		return fmt.Errorf("rtl: unknown expression node %T", e)
	}
	return nil
}
