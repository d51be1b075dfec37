// Command gem5rtl is the general full-system simulation runner: it builds
// the Table 1 SoC with the selected memory technology and optional RTL
// devices, runs a guest workload, and dumps gem5-style statistics.
//
// Examples:
//
//	gem5rtl -cores 1 -mem DDR4-4ch -program sort -n 200
//	gem5rtl -mem HBM -nvdla 4 -inflight 64 -dla-workload sanity3
//	gem5rtl -cores 1 -pmu -program stream
//
// The flags map onto one experiments.RunSpec plus Run options; the run
// itself is experiments.Run, the same path the sweeps and the sweep service
// take. A run can be suspended and resumed: -checkpoint-at stops at a
// simulated time and serialises the full system; -restore (with the same
// configuration flags) resumes it, producing output identical to the
// uninterrupted run:
//
//	gem5rtl -cores 1 -program sort -checkpoint-at 5ms -checkpoint-out ck.bin
//	gem5rtl -cores 1 -program sort -restore ck.bin
package main

import (
	"flag"
	"fmt"
	"os"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/guard"
	"gem5rtl/internal/hostflag"
	"gem5rtl/internal/obs"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
)

func main() {
	host := hostflag.Register("gem5rtl")
	cores := flag.Int("cores", 8, "number of CPU cores")
	memName := flag.String("mem", "DDR4-4ch", "memory: ideal, DDR4-1ch/2ch/4ch, GDDR5, HBM")
	program := flag.String("program", "sort", "guest program: sort, loop, stream, none")
	n := flag.Int("n", 200, "workload size parameter")
	withPMU := flag.Bool("pmu", false, "attach the PMU RTL model to core 0")
	rtlEngine := flag.String("rtl-engine", "", "RTL simulation engine: closure or bytecode (default bytecode; results are engine-independent)")
	nvdlas := flag.Int("nvdla", 0, "number of NVDLA accelerator instances")
	inflight := flag.Int("inflight", 64, "per-NVDLA max in-flight memory requests")
	dlaWorkload := flag.String("dla-workload", "sanity3", "NVDLA trace: sanity3 or googlenet")
	dlaScale := flag.Int("dla-scale", 8, "NVDLA trace footprint divisor")
	scratchpad := flag.Bool("scratchpad", false, "hook NVDLA SRAMIF to an on-chip scratchpad (paper §4.2 extension)")
	limitMs := flag.Int("limit-ms", 2000, "simulated time limit in milliseconds")
	ckptAt := flag.Duration("checkpoint-at", 0, "run to this simulated time (pick one before the run completes), save a checkpoint, and exit")
	ckptOut := flag.String("checkpoint-out", "gem5rtl.ckpt", "checkpoint file written by -checkpoint-at")
	restorePath := flag.String("restore", "", "resume from a checkpoint file; other flags must match the checkpointed configuration")
	watchdog := flag.Bool("watchdog", false, "attach a liveness watchdog: abort with a diagnostic dump instead of idling to the time limit on a hang")
	checkPorts := flag.Bool("check-ports", false, "enforce the timing-port handshake protocol on every bound link (panics on a violation)")
	debugFlags := flag.String("debug-flags", "", obs.ParseFlagsHelp())
	debugStart := flag.Duration("debug-start", 0, "start of the trace window in simulated time")
	debugEnd := flag.Duration("debug-end", 0, "end of the trace window in simulated time (0 = no end)")
	debugFile := flag.String("debug-file", "", "write trace lines to this file instead of stderr")
	statsInterval := flag.Duration("stats-interval", 0, "dump per-interval stat deltas every this much simulated time (0 = off)")
	statsOut := flag.String("stats-out", "", "interval-stats output file (default stderr)")
	statsFormat := flag.String("stats-format", "jsonl", "interval-stats format: jsonl or csv")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON (open in Perfetto) of packet lifetimes to this file")
	latHist := flag.Bool("lat-hist", false, "attach packet-latency taps and report per-link histograms in the stats dump")
	flag.Parse()

	if *checkPorts {
		port.Checking = true
	}
	ctx := host.Start()

	spec := experiments.RunSpec{Memory: *memName, Inflight: *inflight,
		Limit: sim.Tick(*limitMs) * sim.Millisecond, Cores: *cores, PMU: *withPMU, RTLEngine: *rtlEngine}
	if *nvdlas > 0 {
		spec.Workload, spec.NVDLAs, spec.Scale, spec.Scratchpad = *dlaWorkload, *nvdlas, *dlaScale, *scratchpad
	}
	if *program != "none" {
		spec.Program, spec.N = *program, *n
		if *program == "sort" {
			spec.SleepUs = 100
		}
	}
	if err := spec.Validate(); err != nil {
		host.Fatal(err)
	}

	var opts []experiments.Option
	if host.SelfProfile > 0 {
		opts = append(opts, experiments.WithSelfProfile(host.SelfProfile, host.ProfileSink()))
	}
	// Latency taps travel in the checkpoint stream, so a checkpoint written
	// with -lat-hist/-trace-out must be resumed with the same flags.
	var chrome *obs.ChromeTrace
	if *traceOut != "" {
		chrome = obs.NewChromeTrace()
		w := host.Create(*traceOut)
		// Written at exit, so an aborted run leaves a parseable file too.
		host.OnExit(func() {
			if err := chrome.WriteJSON(w); err != nil {
				fmt.Fprintln(os.Stderr, "gem5rtl:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "# %d spans written to %s (open in Perfetto)\n", chrome.Spans(), *traceOut)
		})
	}
	if *latHist || chrome != nil {
		opts = append(opts, experiments.WithLatencyProfile(chrome))
	}
	if *debugFlags != "" {
		opts = append(opts, experiments.WithTracer(obs.Config{
			Flags: *debugFlags,
			Start: sim.Tick(debugStart.Nanoseconds()) * sim.Nanosecond,
			End:   sim.Tick(debugEnd.Nanoseconds()) * sim.Nanosecond,
			Out:   host.Create(*debugFile),
		}))
	}
	if *watchdog {
		opts = append(opts, experiments.WithWatchdog(guard.Config{}))
	}
	if *statsInterval > 0 {
		opts = append(opts, experiments.WithIntervalStats(host.Create(*statsOut),
			sim.Tick(statsInterval.Nanoseconds())*sim.Nanosecond, *statsFormat))
	}
	if *restorePath != "" {
		snap, err := os.ReadFile(*restorePath)
		if err != nil {
			host.Fatal(err)
		}
		opts = append(opts, experiments.WithRestore(snap))
		fmt.Fprintf(os.Stderr, "# resuming from %s\n", *restorePath)
	}

	if *ckptAt > 0 {
		opts = append(opts, experiments.WithSnapshot(sim.Tick(ckptAt.Nanoseconds())*sim.Nanosecond,
			func(snap []byte) error { return os.WriteFile(*ckptOut, snap, 0o666) }))
		at, err := experiments.Run(ctx, spec, opts...)
		if err != nil {
			host.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "# checkpoint at %.3f ms simulated written to %s\n", ms(at), *ckptOut)
		host.Finish()
		return
	}
	var sys *soc.System
	opts = append(opts, experiments.WithSystem(func(s *soc.System) error { sys = s; return nil }))
	done, err := experiments.Run(ctx, spec, opts...)
	if err != nil {
		host.Fatal(err)
	}
	if spec.NVDLAs > 0 {
		fmt.Printf("# accelerators finished at %.3f ms simulated\n", ms(done))
	}
	fmt.Printf("# simulated %.3f ms (%d events)\n", ms(sys.Queue.Now()), sys.Queue.Dispatched())
	sys.Stats.Dump(os.Stdout)
	host.Finish()
}

// ms renders a tick count in simulated milliseconds.
func ms(t sim.Tick) float64 { return float64(t) / float64(sim.Millisecond) }
