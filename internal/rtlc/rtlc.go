// Package rtlc is the optimizing RTL engine: a compiler from the rtl.Circuit
// IR to a flat register-machine bytecode plus a dense switch-dispatch VM with
// word-packed value storage and a dirty-set sequential pass that skips
// registers whose next-state input cones did not change this cycle.
//
// It is the engine every simulation runs (rtl.EngineBytecode): the Verilog
// and VHDL front ends and the PMU compile their models through
// CompileEngine. The closure-compiled engine in package rtl remains the
// bit-exact reference; this engine must be, and is continuously tested to
// be, dispatch-identical to it on every architectural observable (signal
// values, memories, VCD traces, checkpoints, state hashes, fault-injection
// outcomes). See DESIGN.md §"RTL compiler pipeline" for the IR →
// optimization passes → bytecode → VM walk-through.
package rtlc

import (
	"fmt"

	"gem5rtl/internal/rtl"
)

// CompileEngine validates, levelises, and instantiates c on the named
// engine: rtl.EngineBytecode, the production engine of this package, or
// rtl.EngineClosure, the reference that tests and the kernel benchmark
// compare it against. Engine choice never changes results, only execution
// speed.
func CompileEngine(c *rtl.Circuit, engine rtl.Engine) (*rtl.Model, error) {
	switch engine {
	case rtl.EngineBytecode:
		return rtl.CompileBackend(c, engine, func(c *rtl.Circuit, mems [][]uint64) (rtl.Backend, error) {
			p, err := Compile(c)
			if err != nil {
				return nil, err
			}
			return NewVM(p, mems)
		})
	case rtl.EngineClosure:
		return rtl.Compile(c)
	}
	return nil, fmt.Errorf("rtlc: unknown engine %q (want %s or %s)", engine, rtl.EngineBytecode, rtl.EngineClosure)
}
