// Command rtlsim is gem5rtl's standalone HDL simulator — the "Verilator /
// GHDL" entry point of the toolflow. It compiles a Verilog (.v/.sv) or VHDL
// (.vhd/.vhdl) source file into a cycle-accurate model, optionally drives
// constant input values, simulates N cycles, and prints the final outputs.
// With -vcd it writes a waveform file; with -checkpoint/-restore it saves
// and resumes model state.
//
// Examples:
//
//	rtlsim -top counter -set en=1 -cycles 100 design.v
//	rtlsim -top bitonic8 -set in_lo=0x04030201 -vcd waves.vcd sorter.vhd
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gem5rtl/internal/hostflag"
	"gem5rtl/internal/prof"
	"gem5rtl/internal/rtl"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/verilog"
	"gem5rtl/internal/vhdl"
)

func main() {
	top := flag.String("top", "", "top module/entity name (required)")
	cycles := flag.Int("cycles", 10, "clock cycles to simulate")
	vcdPath := flag.String("vcd", "", "write a VCD waveform to this file")
	ckptPath := flag.String("checkpoint", "", "save model state here after the run")
	restPath := flag.String("restore", "", "restore model state from here before the run")
	selfProf := flag.Int("self-profile", 0, "profile the model's comb/seq/memw phases with this clock-read cadence (64 is a good default; 0 = off)")
	selfProfOut := flag.String("self-profile-out", "", "self-profile export file: .pb.gz = pprof protobuf, else folded stacks (default: print a table to stderr)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	var sets multiFlag
	flag.Var(&sets, "set", "drive input: name=value (repeatable)")
	flag.Parse()

	if *pprofAddr != "" {
		defer hostflag.Pprof("rtlsim", *pprofAddr)()
	}
	if flag.NArg() != 1 || *top == "" {
		fmt.Fprintln(os.Stderr, "usage: rtlsim -top NAME [flags] design.{v,sv,vhd,vhdl}")
		flag.PrintDefaults()
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}

	var model *rtl.Model
	switch {
	case strings.HasSuffix(path, ".v") || strings.HasSuffix(path, ".sv"):
		model, err = verilog.Compile(string(src), *top, nil)
	case strings.HasSuffix(path, ".vhd") || strings.HasSuffix(path, ".vhdl"):
		model, err = vhdl.Compile(string(src), *top, nil)
	default:
		err = fmt.Errorf("unknown HDL extension on %q (want .v/.sv/.vhd/.vhdl)", path)
	}
	if err != nil {
		fatal(err)
	}

	// A standalone model has no event queue; a fresh one hosts the profiler
	// so the model's phonebook of phase owners and the export formats are the
	// same ones the full-system binaries use.
	var profQ *sim.EventQueue
	if *selfProf > 0 {
		profQ = sim.NewEventQueue()
		p := profQ.AttachProfiler(*selfProf)
		model.AttachProfiler(p,
			profQ.Owner(*top, "rtl-comb"),
			profQ.Owner(*top, "rtl-seq"),
			profQ.Owner(*top, "rtl-memw"))
	}

	if *restPath != "" {
		f, err := os.Open(*restPath)
		if err != nil {
			fatal(err)
		}
		if err := model.RestoreCheckpoint(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
	var vcdFile *os.File
	if *vcdPath != "" {
		vcdFile, err = os.Create(*vcdPath)
		if err != nil {
			fatal(err)
		}
		model.AttachVCD(vcdFile, 1)
	}
	for _, s := range sets {
		name, val, ok := strings.Cut(s, "=")
		if !ok {
			fatal(fmt.Errorf("bad -set %q (want name=value)", s))
		}
		v, err := strconv.ParseUint(strings.TrimPrefix(val, "0x"), base(val), 64)
		if err != nil {
			fatal(fmt.Errorf("bad value in -set %q: %v", s, err))
		}
		model.SetInput(name, v)
	}

	for i := 0; i < *cycles; i++ {
		model.Tick()
	}
	model.Eval()

	fmt.Printf("# %s after %d cycles\n", *top, model.Cycle())
	c := model.Circuit()
	for _, sig := range c.Signals {
		if sig.Kind == rtl.SigOutput {
			fmt.Printf("%-24s = 0x%x (%d)\n", sig.Name, model.Peek(sig.Name), model.Peek(sig.Name))
		}
	}

	if vcdFile != nil {
		vcdFile.Close()
	}
	if profQ != nil {
		if rep := prof.FromQueue(profQ); rep != nil {
			if err := rep.Export(*selfProfOut, os.Stderr); err != nil {
				fatal(err)
			}
			if *selfProfOut != "" {
				fmt.Fprintf(os.Stderr, "# self-profile written to %s\n", *selfProfOut)
			}
		}
	}
	if *ckptPath != "" {
		f, err := os.Create(*ckptPath)
		if err != nil {
			fatal(err)
		}
		if err := model.SaveCheckpoint(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
}

func base(val string) int {
	if strings.HasPrefix(val, "0x") {
		return 16
	}
	return 10
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rtlsim:", err)
	os.Exit(1)
}
