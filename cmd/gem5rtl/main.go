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
// A run can be suspended and resumed: -checkpoint-at stops at a simulated
// time and serialises the full system; -restore (with the same configuration
// flags) resumes it, producing output identical to the uninterrupted run:
//
//	gem5rtl -cores 1 -program sort -checkpoint-at 5ms -checkpoint-out ck.bin
//	gem5rtl -cores 1 -program sort -restore ck.bin
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/guard"
	"gem5rtl/internal/obs"
	"gem5rtl/internal/pmu"
	"gem5rtl/internal/port"
	"gem5rtl/internal/prof"
	"gem5rtl/internal/rtl"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/trace"
	"gem5rtl/internal/workload"
)

// fatalCleanup holds flush/close hooks fatal runs (LIFO) before exiting.
// os.Exit skips deferred closers, so without this an aborted run — a watchdog
// trip, a blown -timeout — would leave truncated, unparseable -trace-out and
// -stats-out files.
var fatalCleanup []func()

// outFile resolves an output flag: empty means stderr, anything else is
// created (the returned closer is a no-op for stderr). The closer is also
// registered with fatalCleanup so a fatal exit still closes the file.
func outFile(path string) (io.Writer, func(), error) {
	if path == "" {
		return os.Stderr, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	closer := func() { f.Close() }
	fatalCleanup = append(fatalCleanup, closer)
	return f, closer, nil
}

func main() {
	cores := flag.Int("cores", 8, "number of CPU cores")
	memName := flag.String("mem", "DDR4-4ch", "memory: ideal, DDR4-1ch/2ch/4ch, GDDR5, HBM")
	program := flag.String("program", "sort", "guest program: sort, loop, stream, none")
	n := flag.Int("n", 200, "workload size parameter")
	withPMU := flag.Bool("pmu", false, "attach the PMU RTL model to core 0")
	rtlEngine := flag.String("rtl-engine", "", "RTL simulation engine: "+engineChoices()+" (default bytecode; results are engine-independent)")
	nvdlas := flag.Int("nvdla", 0, "number of NVDLA accelerator instances")
	inflight := flag.Int("inflight", 64, "per-NVDLA max in-flight memory requests")
	dlaWorkload := flag.String("dla-workload", "sanity3", "NVDLA trace: sanity3 or googlenet")
	dlaScale := flag.Int("dla-scale", 8, "NVDLA trace footprint divisor")
	scratchpad := flag.Bool("scratchpad", false, "hook NVDLA SRAMIF to an on-chip scratchpad (paper §4.2 extension)")
	limitMs := flag.Int("limit-ms", 2000, "simulated time limit in milliseconds")
	timeout := flag.Duration("timeout", 0, "host wall-clock budget for the run (0 = none)")
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
	selfProf := flag.Int("self-profile", 0, "attach the event-kernel self-profiler with this clock-read cadence in dispatches (64 is a good default; 0 = off)")
	selfProfOut := flag.String("self-profile-out", "", "self-profile export file: .pb.gz = pprof protobuf, else folded stacks (default: print an attribution table to stderr)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	hostMetrics := flag.String("host-metrics", "", "write periodic host runtime metrics (JSONL) to this file")
	flag.Parse()

	if *checkPorts {
		port.Checking = true
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := soc.DefaultConfig()
	cfg.Cores = *cores
	cfg.Memory = *memName
	cfg.WithPMU = *withPMU
	cfg.RTLEngine = rtl.Engine(*rtlEngine)
	cfg.NVDLAs = *nvdlas
	cfg.NVDLAMaxInflight = *inflight
	cfg.NVDLAScratchpad = *scratchpad
	s, err := soc.Build(cfg)
	if err != nil {
		fatal(err)
	}
	if *selfProf > 0 {
		s.AttachSelfProfiler(*selfProf)
	}

	if *pprofAddr != "" {
		stopPprof, err := obs.StartPprof(*pprofAddr)
		if err != nil {
			fatal(err)
		}
		defer stopPprof()
		fmt.Fprintf(os.Stderr, "# pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}
	if *hostMetrics != "" {
		w, closeW, err := outFile(*hostMetrics)
		if err != nil {
			fatal(err)
		}
		defer closeW()
		mon := &obs.HostMonitor{W: w}
		mon.Start()
		defer mon.Stop()
	}

	// Latency taps must be interposed before a restore: their histograms and
	// in-flight stamps travel in the checkpoint stream, so a checkpoint
	// written with -lat-hist/-trace-out must be resumed with the same flags.
	var chrome *obs.ChromeTrace
	if *traceOut != "" {
		chrome = obs.NewChromeTrace()
	}
	if *latHist || chrome != nil {
		s.AttachLatencyProfile(chrome)
	}
	if *debugFlags != "" {
		out, closeOut, err := outFile(*debugFile)
		if err != nil {
			fatal(err)
		}
		defer closeOut()
		if _, err := s.AttachTracer(obs.Config{
			Flags: *debugFlags,
			Start: sim.Tick(debugStart.Nanoseconds()) * sim.Nanosecond,
			End:   sim.Tick(debugEnd.Nanoseconds()) * sim.Nanosecond,
			Out:   out,
		}); err != nil {
			fatal(err)
		}
	}

	restoring := *restorePath != ""

	// A restored run performs none of the live-run setup below: program
	// text, core state, accelerator progress and PMU registers all come from
	// the checkpoint. Only host-side closures (the exit handler) are
	// re-registered.
	if *withPMU && !restoring {
		s.PMU.Start()
		host := experiments.NewAXIHost(s.Queue)
		port.Bind(host.Port(), s.PMU.CPUPort(0))
		// Enable commit lines 0-3, the L1D miss line and the cycle line.
		host.Write(pmu.RegEnable, 0x3F)
	}

	var src string
	switch *program {
	case "sort":
		src = workload.SortBenchmark(workload.SortParams{N: *n, SleepUs: 100})
	case "loop":
		src = workload.SimpleLoop(*n)
	case "stream":
		src = workload.MemoryStream(0x400000, *n)
	case "none":
	default:
		fatal(fmt.Errorf("unknown program %q", *program))
	}
	running := 0
	onExit := func(int64) {
		running--
		if running == 0 && *nvdlas == 0 {
			s.Queue.ExitSimLoop("program exit")
		}
	}
	if src != "" && !restoring {
		if err := s.LoadProgram(0, src); err != nil {
			fatal(err)
		}
		running++
		s.Cores[0].OnExit = onExit
		s.StartCores(0)
	}

	if !restoring {
		for i := 0; i < *nvdlas; i++ {
			s.NVDLAs[i].Start()
			tr, err := trace.Scaled(*dlaWorkload, uint64(i+1)<<32, *dlaScale)
			if err != nil {
				fatal(err)
			}
			s.PlayTrace(i, tr)
		}
	}

	if restoring {
		tick, err := s.RestoreFile(*restorePath)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "# restored %s at %.3f ms simulated\n",
			*restorePath, float64(tick)/float64(sim.Millisecond))
		if src != "" {
			if exited, _ := s.Cores[0].Exited(); !exited {
				running++
			}
			s.Cores[0].OnExit = onExit
		}
	}

	if *watchdog {
		s.AttachWatchdog(guard.Config{})
	}

	var dumper *obs.IntervalDumper
	if *statsInterval > 0 {
		w, closeW, err := outFile(*statsOut)
		if err != nil {
			fatal(err)
		}
		defer closeW()
		d, err := obs.NewIntervalDumper(s.Queue, s.Stats, w,
			sim.Tick(statsInterval.Nanoseconds())*sim.Nanosecond, *statsFormat)
		if err != nil {
			fatal(err)
		}
		d.Start()
		dumper = d
	}
	// flushObs drains the host-side observability sinks; run it before a
	// checkpoint save (the interval event is host-side and not serialisable)
	// and before the final stats dump. It is idempotent and registered with
	// fatalCleanup, so even an aborted run (watchdog trip, blown -timeout)
	// leaves a complete, parseable trace and interval-stats file behind.
	flushed := false
	flushObs := func() error {
		if flushed {
			return nil
		}
		flushed = true
		if dumper != nil {
			if err := dumper.Close(); err != nil {
				return err
			}
		}
		if chrome != nil {
			f, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			if err := chrome.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "# %d spans written to %s (open in Perfetto)\n",
				chrome.Spans(), *traceOut)
		}
		return nil
	}
	fatalCleanup = append(fatalCleanup, func() { _ = flushObs() })

	limit := sim.Tick(*limitMs) * sim.Millisecond
	if *ckptAt > 0 {
		at := sim.Tick(ckptAt.Nanoseconds()) * sim.Nanosecond
		if *nvdlas > 0 {
			if _, _, err := s.RunNVDLAPhase(ctx, at); err != nil {
				fatal(err)
			}
		} else {
			stop := s.Queue.WatchContext(ctx, 0)
			s.Queue.RunUntil(at)
			stop()
			if err := ctx.Err(); err != nil {
				fatal(err)
			}
		}
		if s.Watchdog != nil {
			if err := s.Watchdog.Err(); err != nil {
				fatal(err)
			}
			// The check event is host-side and not serialisable.
			s.Watchdog.Stop()
		}
		if err := flushObs(); err != nil {
			fatal(err)
		}
		if err := s.SaveFile(*ckptOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "# checkpoint at %.3f ms simulated written to %s\n",
			float64(s.Queue.Now())/float64(sim.Millisecond), *ckptOut)
		return
	}
	if *nvdlas > 0 {
		done, err := s.RunUntilNVDLAsDoneCtx(ctx, limit)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# accelerators finished at %.3f ms simulated\n",
			float64(done)/float64(sim.Millisecond))
	} else {
		stop := s.Queue.WatchContext(ctx, 0)
		s.Queue.RunUntil(limit)
		stop()
		if err := ctx.Err(); err != nil {
			fatal(err)
		}
	}
	if s.Watchdog != nil {
		if err := s.Watchdog.Err(); err != nil {
			fatal(err)
		}
	}

	if err := flushObs(); err != nil {
		fatal(err)
	}
	fmt.Printf("# simulated %.3f ms (%d events)\n",
		float64(s.Queue.Now())/float64(sim.Millisecond), s.Queue.Dispatched())
	s.Stats.Dump(os.Stdout)
	if rep := prof.FromQueue(s.Queue); rep != nil {
		if err := rep.Export(*selfProfOut, os.Stderr); err != nil {
			fatal(err)
		}
		if *selfProfOut != "" {
			fmt.Fprintf(os.Stderr, "# self-profile written to %s\n", *selfProfOut)
		}
	}
}

// engineChoices renders the registered RTL engines for flag help.
func engineChoices() string {
	names := make([]string, 0, 2)
	for _, e := range rtl.Engines() {
		names = append(names, string(e))
	}
	return strings.Join(names, ", ")
}

func fatal(err error) {
	for i := len(fatalCleanup) - 1; i >= 0; i-- {
		fatalCleanup[i]()
	}
	fmt.Fprintln(os.Stderr, "gem5rtl:", err)
	os.Exit(1)
}
