package main

import (
	"context"
	_ "embed"
	"fmt"
	"runtime"
	"sort"
	"time"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/pmu"
	"gem5rtl/internal/port"
	"gem5rtl/internal/prof"
	"gem5rtl/internal/rtl"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/verilog"
	"gem5rtl/internal/vhdl"
	guest "gem5rtl/internal/workload"
)

// sorterVHDL is the paper's VHDL validation design, an 8-lane bitonic
// sorting network (a copy of examples/bitonic-vhdl/sorter.vhd).
//
//go:embed sorter.vhd
var sorterVHDL string

// pmuSortWorkload is the Table 2 sort benchmark in its three
// configurations — plain gem5, gem5+PMU, gem5+PMU+waveform — each adding
// one layer, so each layer's cost is the difference of two stages.
var pmuSortWorkload = &workload{
	name:    "pmu-sort",
	stages:  [3]string{"sort_gem5_s", "sort_pmu_s", "sort_wave_s"},
	iterate: pmuSortIterate,
	ledger:  pmuSortLedger,
	once:    fig5Check,
}

// sortSchedule is the order in which an iteration builds and runs the
// configurations (0 gem5, 1 gem5+PMU, 2 gem5+PMU+waveform). The plain
// configuration is the shortest, so it runs more often to get a share of
// the measured time comparable to the others. Interleaving the runs makes a
// slow spell of the host fall on all three stages alike. A stage reports
// the median of its runs.
var sortSchedule = []int{0, 1, 0, 0, 2, 0}

// sortRun is one built system of one configuration.
type sortRun struct {
	cfg experiments.Table2Config
	sys *soc.System
	vcd *countingWriter
}

// pmuSortIterate runs the three Table 2 configurations the way
// Runner.Table2 does (same system, PMU programming and guest program),
// composed from the public soc and experiments pieces so that set-up is
// timed apart and the simulated end tick can be checked. Each run's system
// is built just before it and dropped after it, with a collection in
// between, so every run starts from the same small live heap and no run
// pays for another's garbage.
func pmuSortIterate(e *env, root int) (sample, error) {
	var smp sample
	var sorter *rtl.Model
	t0 := time.Now()
	setup := e.tr.begin(spanSetup, root, -1, "")
	err := e.tr.do(spanVHDL, setup, -1, "bitonic8", func() error {
		var err error
		sorter, err = vhdl.CompileEngine(sorterVHDL, "bitonic8", nil, rtl.EngineBytecode)
		return err
	})
	e.tr.end(setup)
	smp.setup = time.Since(t0)
	if e.traced() {
		e.led["vhdl.compile_s"] = smp.setup.Seconds()
	}
	if err != nil {
		return smp, err
	}
	checkSorter(e, sorter)

	var times [3][]float64
	configs := experiments.Table2Configs()
	for j, i := range sortSchedule {
		c := configs[i]
		t0 := time.Now()
		setup := e.tr.begin(spanSetup, root, j, c.Name)
		r, err := buildSort(e, setup, j, c)
		e.tr.end(setup)
		smp.setup += time.Since(t0)
		if err != nil {
			return smp, fmt.Errorf("%s: %w", c.Name, err)
		}
		if e.traced() {
			r.sys.AttachSelfProfiler(0)
		}
		runtime.GC()
		stage := e.tr.begin(spanStage, root, j, c.Name)
		t0 = time.Now()
		err = e.tr.do(spanSimRun, stage, j, c.Name, func() error { return runSort(r) })
		times[i] = append(times[i], time.Since(t0).Seconds())
		e.tr.end(stage)
		if err != nil {
			return smp, fmt.Errorf("%s: %w", c.Name, err)
		}
		st := r.sys.Cores[0].Stats()
		e.chk.point(c.Name, "ticks", itoa(uint64(r.sys.Queue.Now())),
			"committed", itoa(st.Committed))
		if e.traced() && len(times[i]) == 1 {
			sortLedger(e, i, r)
		}
	}
	smp.runs = times
	return smp, nil
}

// buildSort builds one configuration's system and loads the sort program.
func buildSort(e *env, setup, j int, c experiments.Table2Config) (sortRun, error) {
	r := sortRun{cfg: c, vcd: &countingWriter{}}
	cfg := soc.DefaultConfig()
	cfg.Cores = 1
	cfg.WithPMU = c.PMU
	if c.Waveform {
		cfg.PMUWaveform, cfg.PMUWaveOut = true, r.vcd
	}
	var err error
	r.sys, err = buildSoC(e, setup, j, c.Name, cfg, true)
	if err != nil {
		return r, err
	}
	err = e.tr.do(spanLoadProg, setup, j, c.Name, func() error {
		return r.sys.LoadProgram(0, guest.SortBenchmark(guest.SortParams{
			N: e.sz.SortN, SleepUs: e.sz.SortSleepUs}))
	})
	return r, err
}

// sortLedger fills the traced run's per-layer values from the first run of
// configuration i (0 plain, 1 PMU, 2 waveform).
func sortLedger(e *env, i int, r sortRun) {
	addEvents(e.led, prof.FromQueues(r.sys.ShardQueues...))
	switch i {
	case 0:
		s := r.sys
		l1d := s.L1Ds[0].Stats()
		e.led["cache.l1d_hits"], e.led["cache.l1d_misses"] = float64(l1d.Hits), float64(l1d.Misses)
		e.led["cache.llc_misses"] = float64(s.LLC.Stats().Misses)
		for _, c := range append(append(append(s.L1Is, s.L1Ds...), s.L2s...), s.LLC) {
			e.led["cache.mshr_stalls"] += float64(c.Stats().MSHRStalls)
		}
		st := s.Cores[0].Stats()
		e.led["cpu.committed_insts"], e.led["cpu.ipc"] = float64(st.Committed), st.IPC()
	case 1:
		e.led["rtlobject.ticks"] = float64(r.sys.PMU.Stats().Ticks)
	case 2:
		e.led["rtl.vcd_bytes"] = float64(r.vcd.n)
	}
}

// runSort programs the PMU (when present) over AXI exactly as the Table 2
// harness does, starts core 0 and simulates until the guest exits.
func runSort(r sortRun) error {
	s := r.sys
	if r.cfg.PMU {
		host := experiments.NewAXIHost(s.Queue)
		port.Bind(host.Port(), s.PMU.CPUPort(0))
		s.PMU.Start()
		host.Write(pmu.RegEnable, 0x3F)
		host.Write(pmu.RegThreshSel, pmu.EvCycle)
		host.Write(pmu.RegThreshVal, 10000)
	}
	done := false
	s.Cores[0].OnExit = func(int64) { done = true; s.Queue.ExitSimLoop("exit") }
	s.StartCores(0)
	s.Queue.RunUntil(sim.MaxTick)
	if !done {
		return fmt.Errorf("sort benchmark did not finish")
	}
	return nil
}

// checkSorter drives one vector through the compiled bitonic sorter and
// checks that it comes out sorted.
func checkSorter(e *env, m *rtl.Model) {
	in := [8]uint64{42, 7, 99, 1, 65, 23, 88, 12}
	var lo, hi uint64
	for i := 0; i < 4; i++ {
		lo |= in[i] << (8 * i)
		hi |= in[4+i] << (8 * i)
	}
	m.SetInput("in_lo", lo)
	m.SetInput("in_hi", hi)
	m.Tick()
	olo, ohi := m.Peek("out_lo"), m.Peek("out_hi")
	var got, want [8]uint64
	for i := 0; i < 4; i++ {
		got[i], got[4+i] = olo>>(8*i)&0xff, ohi>>(8*i)&0xff
	}
	want = in
	sort.Slice(want[:], func(i, j int) bool { return want[i] < want[j] })
	e.chk.cond(got == want, "bitonic sorter output %v, want %v", got, want)
}

// pmuSortLedger times the PMU's Verilog front end and derives the per-tick
// RTL and waveform costs from the untraced iteration's stage times.
func pmuSortLedger(e *env) error {
	ledger := e.tr.begin(spanLedger, 0, -1, "verilog")
	t0 := time.Now()
	err := e.tr.do(spanVerilog, ledger, -1, "pmu", func() error {
		_, err := verilog.CompileEngine(pmu.VerilogSource(pmu.NumCounters), "pmu", nil, rtl.EngineBytecode)
		return err
	})
	e.led["verilog.compile_s"] = time.Since(t0).Seconds()
	e.tr.end(ledger)
	if err != nil {
		return err
	}
	gem5, withPMU, wave := e.base.stage(0), e.base.stage(1), e.base.stage(2)
	e.led["pmu.overhead_ratio"] = withPMU / gem5
	e.led["pmu.waveform_ratio"] = wave / gem5
	if ticks := e.led["rtlobject.ticks"]; ticks > 0 {
		e.led["rtl.host_ns_per_pmu_tick"] = (withPMU - gem5) * 1e9 / ticks
		e.led["rtl.vcd_host_ns_per_tick"] = (wave - withPMU) * 1e9 / ticks
	}
	e.led["cpu.host_inst_rate"] = e.led["cpu.committed_insts"] / gem5
	if ev := e.led["sim.events"]; ev > 0 {
		e.led["sim.host_ns_per_event"] = (gem5 + withPMU + wave) * 1e9 / ev
	}
	return nil
}

// fig5Check runs the Figure 5 PMU experiment once (untimed) and checks
// both instruction totals against the goldens: the PMU's count trails
// gem5's by the instructions committed while the PMU leaves reset.
func fig5Check(e *env) error {
	p := experiments.DefaultFig5Params()
	p.N = e.sz.Fig5N
	res, err := experiments.RunFigure5Ctx(context.Background(), p)
	if err != nil {
		return fmt.Errorf("figure 5: %w", err)
	}
	e.chk.point("fig5", "pmu_insts", itoa(res.PMUTotalInsts), "gem5_insts", itoa(res.Gem5TotalInsts),
		"samples", itoa(uint64(len(res.Samples))))
	e.chk.cond(res.PMUTotalInsts <= res.Gem5TotalInsts,
		"figure 5: PMU counted %d instructions, more than gem5's %d", res.PMUTotalInsts, res.Gem5TotalInsts)
	return nil
}

// countingWriter discards VCD output, counting its bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
