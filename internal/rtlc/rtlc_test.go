package rtlc_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gem5rtl/internal/rtl"
	"gem5rtl/internal/rtlc"
)

// allOpsCircuit exercises every IR node kind and documented edge case:
// division by zero, shifts past 64, out-of-range dynamic index and memory
// reads, signed compares of mixed widths, fused and unfused muxes, concat,
// slices, reductions, multiple write ports on one memory.
func allOpsCircuit(t testing.TB) *rtl.Circuit {
	t.Helper()
	b := rtl.NewBuilder("allops")
	a := b.Input("a", 8)
	bi := b.Input("b", 8)
	ci := b.Input("c", 16)
	d := b.Input("d", 1)
	en := b.Input("en", 1)
	ra, rb, rc, rd, ren := b.Ref(a), b.Ref(bi), b.Ref(ci), b.Ref(d), b.Ref(en)

	mem := b.Mem("m", 16, 8)
	b.MemInit(mem, []uint64{0xdead, 0xbeef, 3, 4, 5, 0xffff, 7})

	w := func(name string, e rtl.Expr) rtl.Expr {
		id := b.Wire(name, e.Width())
		b.Assign(id, e)
		return b.Ref(id)
	}

	sum := w("sum", rtl.Add(ra, rb))
	dif := w("dif", rtl.Sub(ra, rb))
	prod := w("prod", rtl.MulE(ra, rb))
	w("quo", rtl.DivE(ra, rb)) // rb == 0 must yield all-ones
	w("rem", rtl.ModE(ra, rb))
	andv := w("andv", rtl.AndE(ra, rb))
	orv := w("orv", rtl.OrE(ra, rb))
	xorv := w("xorv", rtl.XorE(ra, rb))
	shl := w("shlv", rtl.Shl(rc, rb)) // rb >= 64 must yield zero
	shr := w("shrv", rtl.Shr(rc, rb))
	w("srav", rtl.Sra(rc, rb))
	w("eqv", rtl.Eq(ra, rb))
	w("nev", rtl.Ne(ra, rb))
	w("ltv", rtl.Lt(ra, rb))
	w("lev", rtl.Le(ra, rb))
	w("gtv", rtl.Gt(ra, rb))
	w("gev", rtl.Ge(ra, rb))
	w("sltv", rtl.SLt(ra, rc)) // mixed operand widths
	w("landv", rtl.LAnd(ra, rb))
	w("lorv", rtl.LOr(ra, rb))
	w("notv", rtl.Not(rc))
	w("negv", rtl.Neg(rc))
	w("lnotv", rtl.LNot(ra))
	w("redav", rtl.RedAnd(rc))
	w("redov", rtl.RedOr(rc))
	w("redxv", rtl.RedXor(rc))
	w("mux1", rtl.MuxE(rd, ra, rb))
	w("muxeq", rtl.MuxE(rtl.Eq(ra, rtl.C(3, 8)), sum, dif))
	w("muxne", rtl.MuxE(rtl.Ne(ra, rb), ra, rb))
	w("muxlt", rtl.MuxE(rtl.Lt(ra, rb), prod, xorv))
	w("muxle", rtl.MuxE(rtl.Le(ra, rb), andv, orv))
	w("muxgt", rtl.MuxE(rtl.Gt(ra, rb), shl, shr))
	w("muxln", rtl.MuxE(rtl.LNot(rd), ra, rb))
	w("slv", rtl.SliceE(rc, 11, 4))
	w("bitv", rtl.Bit(rc, 7))
	w("idxv", rtl.IndexE(rc, ra)) // ra >= 16 must yield zero
	w("catv", rtl.Cat(rtl.SliceE(ra, 3, 0), rtl.SliceE(rb, 3, 0), rtl.Bit(rc, 0)))
	mrd := w("mrdv", rtl.MemRd(mem, ra, 16)) // ra >= 8 must yield zero
	w("csum", rtl.Add(rtl.C(5, 8), rtl.C(7, 8)))
	w("dupe", rtl.Add(ra, rb)) // CSE against sum

	cnt := b.Reg("cnt", 16, 0)
	b.Seq(cnt, rtl.MuxE(ren, rtl.Add(b.Ref(cnt), rtl.C(1, 16)), b.Ref(cnt)))
	acc := b.Reg("acc", 16, 0x1234)
	b.Seq(acc, rtl.XorE(b.Ref(acc), mrd))
	shreg := b.Reg("shreg", 8, 1)
	b.Seq(shreg, rtl.Cat(rtl.SliceE(b.Ref(shreg), 6, 0), rtl.Bit(rc, 3)))

	// Two write ports on one memory: last-writer-wins ordering must hold.
	b.MemWr(mem, rtl.SliceE(ra, 2, 0), rc, ren)
	b.MemWr(mem, rtl.SliceE(rb, 2, 0), rtl.Not(rc), rtl.Bit(ra, 0))

	out := b.Output("out", 16)
	b.Assign(out, rtl.XorE(rtl.Resize(sum, 16), rtl.Add(b.Ref(cnt), b.Ref(acc))))

	c, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return c
}

func compileBoth(t testing.TB, c *rtl.Circuit) (mc, mb *rtl.Model) {
	t.Helper()
	mc, err := rtlc.CompileEngine(c, rtl.EngineClosure)
	if err != nil {
		t.Fatalf("closure compile: %v", err)
	}
	mb, err = rtlc.CompileEngine(c, rtl.EngineBytecode)
	if err != nil {
		t.Fatalf("bytecode compile: %v", err)
	}
	return mc, mb
}

func compareState(t testing.TB, c *rtl.Circuit, mc, mb *rtl.Model, tag string) {
	t.Helper()
	for i := range c.Signals {
		if gc, gb := mc.PeekID(rtl.SigID(i)), mb.PeekID(rtl.SigID(i)); gc != gb {
			t.Fatalf("%s: signal %q: closure %#x, bytecode %#x", tag, c.Signals[i].Name, gc, gb)
		}
	}
	for mi := range c.Mems {
		for a := 0; a < c.Mems[mi].Depth; a++ {
			if gc, gb := mc.PeekMem(rtl.MemID(mi), a), mb.PeekMem(rtl.MemID(mi), a); gc != gb {
				t.Fatalf("%s: mem %q[%d]: closure %#x, bytecode %#x", tag, c.Mems[mi].Name, a, gc, gb)
			}
		}
	}
	if mc.Cycle() != mb.Cycle() {
		t.Fatalf("%s: cycle: closure %d, bytecode %d", tag, mc.Cycle(), mb.Cycle())
	}
}

// driveAllOps produces the step-s stimulus, hitting the divide-by-zero,
// oversized-shift and out-of-range edges on a regular cadence.
func driveAllOps(m *rtl.Model, rng *rand.Rand, s int) {
	av, bv, cv := rng.Uint64(), rng.Uint64(), rng.Uint64()
	switch s % 5 {
	case 1:
		bv = 0 // div/mod by zero
	case 2:
		bv = 200 // shift >= 64
	case 3:
		av = 0xff // index/memread out of range
	}
	m.SetInput("a", av)
	m.SetInput("b", bv)
	m.SetInput("c", cv)
	m.SetInput("d", uint64(s>>1)&1)
	m.SetInput("en", uint64(s)&1)
}

func TestEnginesDispatchIdentical(t *testing.T) {
	c := allOpsCircuit(t)
	mc, mb := compileBoth(t, c)
	compareState(t, c, mc, mb, "reset")
	rngC := rand.New(rand.NewSource(42))
	rngB := rand.New(rand.NewSource(42))
	for s := 0; s < 300; s++ {
		driveAllOps(mc, rngC, s)
		driveAllOps(mb, rngB, s)
		mc.Tick()
		mb.Tick()
		compareState(t, c, mc, mb, fmt.Sprintf("step %d", s))
	}
}

// TestEngineSelectionAPI checks the one engine-selection call: an unknown
// engine name is an error, and a model reports the engine it runs.
func TestEngineSelectionAPI(t *testing.T) {
	if _, err := rtlc.CompileEngine(allOpsCircuit(t), "jit"); err == nil {
		t.Fatal("CompileEngine with unknown engine succeeded")
	}
	mc, mb := compileBoth(t, allOpsCircuit(t))
	if mc.Engine() != rtl.EngineClosure || mb.Engine() != rtl.EngineBytecode {
		t.Fatalf("Engine() = %q, %q, want closure, bytecode", mc.Engine(), mb.Engine())
	}
}

func countOps(code []rtlc.Inst, op rtlc.Op) int {
	n := 0
	for i := range code {
		if code[i].Op == op {
			n++
		}
	}
	return n
}

func TestOptimizationConstFold(t *testing.T) {
	b := rtl.NewBuilder("fold")
	o := b.Output("o", 8)
	b.Assign(o, rtl.Add(rtl.MulE(rtl.C(3, 8), rtl.C(5, 8)), rtl.C(2, 8)))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := rtlc.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Comb) != 1 || p.Comb[0].Op != rtlc.OpCopy {
		t.Fatalf("constant expression not folded to one copy:\n%s", p.Disasm())
	}
	if p.NTemp != 0 {
		t.Fatalf("folded program uses %d temps:\n%s", p.NTemp, p.Disasm())
	}
	mc, mb := compileBoth(t, c)
	if got := mb.Peek("o"); got != 17 || mc.Peek("o") != got {
		t.Fatalf("o = %d (closure %d), want 17", got, mc.Peek("o"))
	}
}

func TestOptimizationCSEAndRetarget(t *testing.T) {
	b := rtl.NewBuilder("cse")
	a := b.Input("a", 8)
	bb := b.Input("b", 8)
	x := b.Wire("x", 8)
	y := b.Wire("y", 8)
	z := b.Wire("z", 8)
	b.Assign(x, rtl.Add(b.Ref(a), b.Ref(bb)))
	b.Assign(y, rtl.Add(b.Ref(a), b.Ref(bb))) // identical expression
	b.Assign(z, rtl.Add(b.Ref(bb), b.Ref(a))) // commutative variant
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := rtlc.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if n := countOps(p.Comb, rtlc.OpAdd); n != 1 {
		t.Fatalf("CSE kept %d adds, want 1:\n%s", n, p.Disasm())
	}
	// The single add should have been retargeted to a signal slot directly,
	// so the program needs no temporaries at all.
	if p.NTemp != 0 {
		t.Fatalf("retargeting left %d temps:\n%s", p.NTemp, p.Disasm())
	}
}

func TestOptimizationMuxFusion(t *testing.T) {
	b := rtl.NewBuilder("fuse")
	a := b.Input("a", 8)
	bb := b.Input("b", 8)
	o := b.Output("o", 8)
	b.Assign(o, rtl.MuxE(rtl.Eq(b.Ref(a), rtl.C(3, 8)), b.Ref(a), b.Ref(bb)))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := rtlc.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if n := countOps(p.Comb, rtlc.OpMuxEq); n != 1 {
		t.Fatalf("mux/compare not fused:\n%s", p.Disasm())
	}
	// The standalone compare must have been swept as dead code.
	if n := countOps(p.Comb, rtlc.OpEq); n != 0 {
		t.Fatalf("fused compare left standalone OpEq:\n%s", p.Disasm())
	}
}

func TestDirtySetSkipsQuietRegisters(t *testing.T) {
	b := rtl.NewBuilder("gate")
	en := b.Input("en", 1)
	cnt := b.Reg("cnt", 16, 0)
	b.Seq(cnt, rtl.MuxE(b.Ref(en), rtl.Add(b.Ref(cnt), rtl.C(1, 16)), b.Ref(cnt)))
	o := b.Output("o", 16)
	b.Assign(o, b.Ref(cnt))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mc, mb := compileBoth(t, c)

	// Active phase: the counter changes every cycle, so nothing is skipped.
	mc.SetInput("en", 1)
	mb.SetInput("en", 1)
	for i := 0; i < 10; i++ {
		mc.Tick()
		mb.Tick()
	}
	if got := mb.SeqSkips(); got != 0 {
		t.Fatalf("active counter was skipped %d times", got)
	}
	// Quiet phase: after the enable-low edge settles, every evaluation is
	// provably redundant and must be skipped.
	mc.SetInput("en", 0)
	mb.SetInput("en", 0)
	for i := 0; i < 10; i++ {
		mc.Tick()
		mb.Tick()
	}
	if got := mb.SeqSkips(); got < 8 {
		t.Fatalf("quiet counter skipped only %d times, want >= 8", got)
	}
	compareState(t, c, mc, mb, "after quiet phase")
	if mc.Peek("o") != 10 {
		t.Fatalf("counter = %d, want 10", mc.Peek("o"))
	}

	// Fault injection must invalidate the gating so the flip propagates.
	skipsBefore := mb.SeqSkips()
	dc := mc.InjectStateFlip(3)
	db := mb.InjectStateFlip(3)
	if dc != db {
		t.Fatalf("flip sites differ: %q vs %q", dc, db)
	}
	mc.Tick()
	mb.Tick()
	compareState(t, c, mc, mb, "after flip")
	if mb.SeqSkips() != skipsBefore {
		t.Fatal("tick after fault injection was skipped")
	}
	if mc.SeqSkips() != 0 {
		t.Fatalf("closure engine reports %d skips, want 0", mc.SeqSkips())
	}
}

func TestCrossEngineCheckpoint(t *testing.T) {
	c := allOpsCircuit(t)
	run := func(m *rtl.Model, rng *rand.Rand, from, to int) {
		for s := from; s < to; s++ {
			driveAllOps(m, rng, s)
			m.Tick()
		}
	}
	for _, dir := range []struct {
		name       string
		save, load rtl.Engine
	}{
		{"closure-to-bytecode", rtl.EngineClosure, rtl.EngineBytecode},
		{"bytecode-to-closure", rtl.EngineBytecode, rtl.EngineClosure},
	} {
		t.Run(dir.name, func(t *testing.T) {
			src, err := rtlc.CompileEngine(c, dir.save)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			run(src, rng, 0, 40)
			var buf bytes.Buffer
			if err := src.SaveCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			dst, err := rtlc.CompileEngine(c, dir.load)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.RestoreCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("cross-engine restore: %v", err)
			}
			compareState(t, c, src, dst, "restore")
			// Both engines must continue bit-identically from the restored
			// state under identical stimulus.
			rngA := rand.New(rand.NewSource(9))
			rngB := rand.New(rand.NewSource(9))
			for s := 0; s < 40; s++ {
				driveAllOps(src, rngA, s)
				driveAllOps(dst, rngB, s)
				src.Tick()
				dst.Tick()
				compareState(t, c, src, dst, fmt.Sprintf("post-restore step %d", s))
			}
		})
	}
}

func TestVCDByteIdentical(t *testing.T) {
	c := allOpsCircuit(t)
	mc, mb := compileBoth(t, c)
	var bufC, bufB bytes.Buffer
	mc.AttachVCD(&bufC, 1)
	mb.AttachVCD(&bufB, 1)
	rngC := rand.New(rand.NewSource(11))
	rngB := rand.New(rand.NewSource(11))
	for s := 0; s < 60; s++ {
		driveAllOps(mc, rngC, s)
		driveAllOps(mb, rngB, s)
		mc.Tick()
		mb.Tick()
	}
	if !bytes.Equal(bufC.Bytes(), bufB.Bytes()) {
		t.Fatalf("VCD output differs between engines (%d vs %d bytes)", bufC.Len(), bufB.Len())
	}
	if bufC.Len() == 0 {
		t.Fatal("VCD output empty")
	}
}

func TestFaultInjectionEquivalence(t *testing.T) {
	c := allOpsCircuit(t)
	mc, mb := compileBoth(t, c)
	if mc.StateBits() != mb.StateBits() {
		t.Fatalf("StateBits: %d vs %d", mc.StateBits(), mb.StateBits())
	}
	rngC := rand.New(rand.NewSource(5))
	rngB := rand.New(rand.NewSource(5))
	pickRng := rand.New(rand.NewSource(6))
	for s := 0; s < 120; s++ {
		driveAllOps(mc, rngC, s)
		driveAllOps(mb, rngB, s)
		mc.Tick()
		mb.Tick()
		if s%7 == 3 {
			pick := pickRng.Uint64()
			dc, db := mc.InjectStateFlip(pick), mb.InjectStateFlip(pick)
			if dc != db {
				t.Fatalf("step %d: flip sites differ: %q vs %q", s, dc, db)
			}
		}
		compareState(t, c, mc, mb, fmt.Sprintf("step %d", s))
	}
}

// TestTickAllocsPerRun enforces the zero-allocation discipline on the Tick
// hot path for both engines, matching the port/cache regression tests.
func TestTickAllocsPerRun(t *testing.T) {
	c := allOpsCircuit(t)
	for _, engine := range []rtl.Engine{rtl.EngineClosure, rtl.EngineBytecode} {
		t.Run(string(engine), func(t *testing.T) {
			m, err := rtlc.CompileEngine(c, engine)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			s := 0
			allocs := testing.AllocsPerRun(200, func() {
				driveAllOps(m, rng, s)
				s++
				m.Tick()
			})
			if allocs != 0 {
				t.Fatalf("engine %s: Tick allocates %.1f times per cycle, want 0", engine, allocs)
			}
		})
	}
}
