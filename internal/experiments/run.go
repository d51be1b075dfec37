package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"gem5rtl/internal/guard"
	"gem5rtl/internal/obs"
	"gem5rtl/internal/pmu"
	"gem5rtl/internal/port"
	"gem5rtl/internal/prof"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/stats"
	"gem5rtl/internal/trace"
	"gem5rtl/internal/workload"
)

// Option configures one Run call. Options compose: checkpointing, liveness
// guarding and observability are independent axes, and any subset may be
// active on the same point.
type Option func(*runOpts)

type runOpts struct {
	warmup   sim.Tick
	cache    *CheckpointCache
	snapAt   sim.Tick
	snapSave func([]byte) error
	restore  []byte

	guard    *guard.Config
	trace    *obs.Config
	latency  bool
	chrome   *obs.ChromeTrace
	wave     io.Writer
	ivW      io.Writer // WithIntervalStats
	ivEvery  sim.Tick
	ivFormat string
	profile  bool
	profEach int
	simTime  *time.Duration
	// final runs, in order, on the finished system of a completed run.
	final []func(*soc.System) error
}

// WithWarmStart turns the run into a warm-start point against cache: the
// first execution of a spec snapshots the full system at the warmup tick and
// later executions restore the snapshot and simulate only the remainder.
// Results are bit-identical either way (the soc restore-equivalence
// property). A zero warmup or nil cache leaves the run cold.
func WithWarmStart(warmup sim.Tick, cache *CheckpointCache) Option {
	return func(o *runOpts) {
		o.warmup = warmup
		o.cache = cache
	}
}

// WithSnapshot runs the point only to tick at (or to its completion, if
// that comes first), hands the full-system snapshot to save, and returns the
// reached tick without simulating the remainder. Resuming the snapshot with
// WithRestore under the same spec and observers reproduces the uninterrupted
// run exactly.
func WithSnapshot(at sim.Tick, save func(snapshot []byte) error) Option {
	return func(o *runOpts) {
		o.snapAt = at
		o.snapSave = save
	}
}

// WithRestore resumes the point from a snapshot written by WithSnapshot (or
// soc.System.Save) instead of setting it up: program text, core state,
// accelerator progress and PMU registers all come from the snapshot.
func WithRestore(snapshot []byte) Option {
	return func(o *runOpts) { o.restore = snapshot }
}

// WithWatchdog attaches a liveness watchdog with the given configuration, so
// a hung point surfaces as a *guard.HangError instead of idling to the time
// limit. Composes with the checkpointing options: the watchdog is detached
// around a snapshot save (its check event is host-side and not
// serialisable) and re-attached for the simulated remainder.
//
// An untripped watchdog never perturbs simulated behaviour — component events
// dispatch at the same ticks and the run finishes at the same time — but its
// periodic check event does consume event-queue sequence numbers and dispatch
// counts, which the checkpoint format serialises. A guarded run's StateHash
// therefore differs from an unguarded one even though the simulated machine
// is identical; compare hashes only between runs with the same guard setting.
func WithWatchdog(cfg guard.Config) Option {
	return func(o *runOpts) { o.guard = &cfg }
}

// WithTracer attaches a debug-flag tracer to the point's system (see
// obs.Config). Tracing is observational: a traced run dispatches the same
// events at the same ticks as an untraced one.
func WithTracer(cfg obs.Config) Option {
	return func(o *runOpts) { o.trace = &cfg }
}

// WithLatencyProfile attaches packet-latency taps (soc.AttachLatencyProfile)
// whose histograms join the point's statistics; a non-nil chrome also
// collects one trace-event span per completed packet. The taps' state
// travels in snapshots, so a snapshot written with them must be resumed
// with them.
func WithLatencyProfile(chrome *obs.ChromeTrace) Option {
	return func(o *runOpts) {
		o.latency = true
		o.chrome = chrome
	}
}

// WithIntervalStats writes per-interval statistic deltas to w every this
// much simulated time, in format "jsonl" or "csv" (see obs.IntervalDumper).
// The final partial interval is written when Run returns, also on failure,
// so an aborted run still leaves a complete file.
func WithIntervalStats(w io.Writer, every sim.Tick, format string) Option {
	return func(o *runOpts) { o.ivW, o.ivEvery, o.ivFormat = w, every, format }
}

// WithWaveform records a VCD waveform of the PMU model into w. Waveform
// output is observational: the simulated machine is identical either way.
func WithWaveform(w io.Writer) Option {
	return func(o *runOpts) { o.wave = w }
}

// WithStateHash stores the post-run full-system state digest (soc.StateHash)
// into dst — the bit-identity witness tests and the sweep service use to
// prove two execution paths produced the same machine.
func WithStateHash(dst *uint64) Option {
	return WithSystem(func(s *soc.System) error {
		h, err := s.StateHash()
		if err != nil {
			return fmt.Errorf("experiments: post-run state hash: %w", err)
		}
		*dst = h
		return nil
	})
}

// WithStats delivers the point's final statistics (sorted, deterministic) to
// sink after the run completes.
func WithStats(sink func([]stats.Sample)) Option {
	return WithSystem(func(s *soc.System) error {
		sink(s.Stats.SnapshotSorted())
		return nil
	})
}

// WithSelfProfile attaches the event-kernel self-profiler to the point's
// system (soc.AttachSelfProfiler; every <= 0 selects the default clock-read
// cadence) and delivers the per-component attribution report to sink after
// the run completes. The report's event counts are exact and deterministic;
// its host-time shares are sampled wall time. Profiling is observational:
// the simulated machine and its final stats are byte-identical either way.
// The checkpoint stream — and therefore StateHash, which digests it — gains
// the exact event-count attribution table when profiling is on, so a
// warm-start restore continues the prefix's attribution; the hash stays
// deterministic in both modes.
func WithSelfProfile(every int, sink func(*prof.Report)) Option {
	return func(o *runOpts) {
		o.profile, o.profEach = true, every
		if sink != nil {
			o.final = append(o.final, func(s *soc.System) error {
				sink(prof.FromQueue(s.Queue))
				return nil
			})
		}
	}
}

// WithSimTime stores into dst the host wall-clock time the point spent
// simulating: building, setting up, snapshotting and the post-run sinks are
// excluded. It is the measurement the simulation-time overhead tables use.
func WithSimTime(dst *time.Duration) Option {
	return func(o *runOpts) { o.simTime = dst }
}

// WithSystem hands the finished system to fn after a completed run (not
// after a WithSnapshot stop), in option order with the other post-run
// sinks. An error from fn fails the run.
func WithSystem(fn func(*soc.System) error) Option {
	return func(o *runOpts) { o.final = append(o.final, fn) }
}

// Run executes one simulation point: the spec's guest program on core 0
// and its accelerators, each running its own copy of the workload trace
// (the paper's setup), on the named memory technology. It returns the
// completion tick — the last accelerator's completion interrupt, or the
// guest program's exit when there are no accelerators — and fails if the
// spec's limit passes first. Cancelling ctx aborts the event loop promptly
// and returns ctx.Err(). Options layer checkpointing, liveness guarding and
// observability onto the same run.
func Run(ctx context.Context, spec RunSpec, opts ...Option) (sim.Tick, error) {
	var o runOpts
	for _, opt := range opts {
		opt(&o)
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	warm := o.cache != nil && o.warmup > 0
	snap := o.restore
	if snap == nil && warm {
		snap, _ = o.cache.load(spec, o.warmup)
	}
	s, _, err := build(spec, &o, snap)
	if warm && o.restore == nil && snap != nil {
		if err == nil {
			o.cache.countHit()
		} else {
			// A snapshot that fails to restore (a stale file persisted by
			// an older build) is dropped and the point runs cold.
			o.cache.countStale()
			o.cache.drop(spec, o.warmup)
			snap = nil
			s, _, err = build(spec, &o, nil)
		}
	}
	if err != nil {
		// A point that cannot build will not build on a retry either.
		return 0, Permanent(err)
	}
	r := &running{s: s, spec: spec, o: &o}
	if err := r.attach(); err != nil {
		return 0, Permanent(err)
	}
	defer r.close()

	// Split the run around a snapshot: run the prefix, save, and either
	// stop there (WithSnapshot) or store it and run on (a warm-start miss).
	if o.snapSave != nil || (warm && snap == nil) {
		at := o.warmup
		if o.snapSave != nil {
			at = o.snapAt
		}
		done, remaining, err := r.phase(ctx, at)
		if err != nil {
			return 0, err
		}
		if o.snapSave == nil && remaining == 0 {
			// Finished inside the warm-up window; nothing worth snapshotting.
			return done, r.finish()
		}
		r.pause()
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			return 0, fmt.Errorf("experiments: snapshot of %v: %w", spec, err)
		}
		if o.snapSave != nil {
			return s.Queue.Now(), o.snapSave(buf.Bytes())
		}
		o.cache.store(spec, o.warmup, buf.Bytes())
		if err := r.attach(); err != nil {
			return 0, err
		}
	}
	done, remaining, err := r.phase(ctx, spec.Limit)
	if err != nil {
		return 0, err
	}
	if remaining > 0 {
		if spec.NVDLAs > 0 {
			return 0, fmt.Errorf("soc: %d accelerators still running at tick %d", remaining, s.Queue.Now())
		}
		return 0, fmt.Errorf("experiments: guest program still running at tick %d", s.Queue.Now())
	}
	return done, r.finish()
}

// build turns spec into a system ready to simulate. The observers o asks for
// are attached first, so they see set-up traffic and are in place before a
// snapshot restores their state. A non-nil snapshot then supplies the whole
// machine state; otherwise the system is set up: the PMU's counters enabled
// (and its threshold programmed) over AXI, the guest program loaded and
// started on core 0, and every accelerator started on its own copy of the
// workload trace. It returns the AXI host the PMU was programmed through
// (nil without a PMU or after a restore).
func build(spec RunSpec, o *runOpts, snapshot []byte) (*soc.System, *AXIHost, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	cfg := soc.DefaultConfig()
	cfg.Cores = max(spec.Cores, 1)
	cfg.Memory = spec.Memory
	cfg.WithPMU = spec.PMU
	cfg.NVDLAs = spec.NVDLAs
	cfg.NVDLAMaxInflight = spec.Inflight
	cfg.NVDLAScratchpad = spec.Scratchpad
	cfg.PMUWaveform, cfg.PMUWaveOut = o.wave != nil, o.wave
	s, err := soc.Build(cfg)
	if err != nil {
		return nil, nil, err
	}
	if o.profile {
		s.AttachSelfProfiler(o.profEach)
	}
	if o.latency {
		s.AttachLatencyProfile(o.chrome)
	}
	if o.trace != nil {
		if _, err := s.AttachTracer(*o.trace); err != nil {
			return nil, nil, err
		}
	}
	if snapshot != nil {
		if _, err := s.Restore(bytes.NewReader(snapshot)); err != nil {
			return nil, nil, err
		}
		return s, nil, nil
	}
	var host *AXIHost
	if spec.PMU {
		s.PMU.Start()
		host = NewAXIHost(s.Queue)
		port.Bind(host.Port(), s.PMU.CPUPort(0))
		// Enable commit lines 0-3, the L1D miss line and the cycle line;
		// optionally interrupt every PMUInterval cycle events.
		host.Write(pmu.RegEnable, 0x3F)
		if spec.PMUInterval > 0 {
			host.Write(pmu.RegThreshSel, pmu.EvCycle)
			host.Write(pmu.RegThreshVal, uint32(spec.PMUInterval))
		}
	}
	var src string
	switch spec.Program {
	case "sort":
		src = workload.SortBenchmark(workload.SortParams{N: spec.N, SleepUs: spec.SleepUs})
	case "loop":
		src = workload.SimpleLoop(spec.N)
	case "stream":
		src = workload.MemoryStream(0x400000, spec.N)
	}
	if src != "" {
		if err := s.LoadProgram(0, src); err != nil {
			return nil, nil, err
		}
		s.StartCores(0)
	}
	for i := 0; i < spec.NVDLAs; i++ {
		s.NVDLAs[i].Start()
		tr, err := trace.Scaled(spec.Workload, uint64(i+1)<<32, spec.Scale)
		if err != nil {
			return nil, nil, err
		}
		s.PlayTrace(i, tr)
	}
	return s, host, nil
}

// phase simulates s until the spec's work is done or tick until passes,
// whichever comes first, and returns the reached tick and how much work is
// left. With accelerators the work is their traces and the run stops where
// soc.RunNVDLAPhase stops it (a guest program is background load); without,
// the work is the guest program and the run stops when it exits. Reaching
// until is not an error, so a run split into a prefix and a remainder
// dispatches exactly the events of an unsplit one. A watchdog trip or a
// cancelled ctx is.
func phase(ctx context.Context, s *soc.System, spec RunSpec, until sim.Tick) (sim.Tick, int, error) {
	if spec.NVDLAs > 0 {
		return s.RunNVDLAPhase(ctx, until)
	}
	if err := ctx.Err(); err != nil {
		return 0, 1, err
	}
	core := s.Cores[0]
	if exited, _ := core.Exited(); exited {
		return s.Queue.Now(), 0, nil
	}
	core.OnExit = func(int64) { s.Queue.ExitSimLoop("guest exit") }
	stop := s.Queue.WatchContext(ctx, 0)
	s.Queue.RunUntil(until)
	stop()
	s.Queue.ClearExit()
	if err := ctx.Err(); err != nil {
		return 0, 1, err
	}
	exited, _ := core.Exited()
	left := 1
	if exited {
		left = 0
	}
	if s.Watchdog != nil {
		if err := s.Watchdog.Err(); err != nil {
			return s.Queue.Now(), left, err
		}
	}
	return s.Queue.Now(), left, nil
}

// running is one point between build and return: the system plus the
// host-side observers whose events cannot be serialised, so they are
// detached around a snapshot save and before the post-run sinks.
type running struct {
	s      *soc.System
	spec   RunSpec
	o      *runOpts
	wd     *guard.Watchdog
	dumper *obs.IntervalDumper
}

// attach installs (or re-installs after a pause) the watchdog and the
// interval-stats dumper.
func (r *running) attach() error {
	if r.o.guard != nil {
		r.wd = r.s.AttachWatchdog(*r.o.guard)
	}
	if r.o.ivW != nil {
		if r.dumper == nil {
			d, err := obs.NewIntervalDumper(r.s.Queue, r.s.Stats, r.o.ivW, r.o.ivEvery, r.o.ivFormat)
			if err != nil {
				return err
			}
			r.dumper = d
			d.Start()
		} else {
			r.dumper.Resume()
		}
	}
	return nil
}

// pause detaches the host-side events: before a snapshot save, and before
// the post-run sinks serialise the queue.
func (r *running) pause() {
	if r.wd != nil {
		r.wd.Stop()
	}
	if r.dumper != nil {
		r.dumper.Stop()
	}
}

// phase runs one simulation phase, timing it for WithSimTime.
func (r *running) phase(ctx context.Context, until sim.Tick) (sim.Tick, int, error) {
	start := time.Now()
	done, left, err := phase(ctx, r.s, r.spec, until)
	if r.o.simTime != nil {
		*r.o.simTime += time.Since(start)
	}
	return done, left, err
}

// finish runs the post-run sinks on a completed run.
func (r *running) finish() error {
	r.pause()
	for _, fn := range r.o.final {
		if err := fn(r.s); err != nil {
			return err
		}
	}
	return nil
}

// close ends the run on every path: the watchdog stops, the interval dumper
// writes its final record, and the dispatched events join the host-wide
// count.
func (r *running) close() {
	r.pause()
	if r.dumper != nil {
		r.dumper.Close()
	}
	obs.CountEvents(r.s.Queue.Dispatched())
}
