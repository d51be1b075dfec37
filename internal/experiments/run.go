package experiments

import (
	"bytes"
	"context"
	"fmt"

	"gem5rtl/internal/guard"
	"gem5rtl/internal/obs"
	"gem5rtl/internal/prof"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/stats"
)

// Option configures one Run call. Options compose: warm-start, liveness
// guarding and observability are independent axes, and any subset may be
// active on the same point. The former RunPoint/RunPointWarm/RunPointGuarded
// entry points are exactly Run with zero or one option.
type Option func(*runOpts)

type runOpts struct {
	warmup    sim.Tick
	cache     *CheckpointCache
	guard     *guard.Config
	trace     *obs.Config
	stateHash *uint64
	statsSink func([]stats.Sample)
	profEvery int
	profSink  func(*prof.Report)
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

// WithWatchdog attaches a liveness watchdog with the given configuration, so
// a hung point surfaces as a *guard.HangError instead of idling to the time
// limit. Composes with WithWarmStart: the watchdog is detached around the
// snapshot save/restore (its check event is host-side and not serialisable)
// and re-attached for the simulated remainder.
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

// WithStateHash stores the post-run full-system state digest (soc.StateHash)
// into dst — the bit-identity witness tests and the sweep service use to
// prove two execution paths produced the same machine.
func WithStateHash(dst *uint64) Option {
	return func(o *runOpts) { o.stateHash = dst }
}

// WithStats delivers the point's final statistics (sorted, deterministic) to
// sink after the run completes.
func WithStats(sink func([]stats.Sample)) Option {
	return func(o *runOpts) { o.statsSink = sink }
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
// Under warm-start the checkpoint carries the warm-up prefix's event counts,
// so a restore run's attribution equals the uninterrupted run's exactly.
func WithSelfProfile(every int, sink func(*prof.Report)) Option {
	return func(o *runOpts) {
		o.profEvery = every
		o.profSink = sink
	}
}

// Run executes one simulation point: n accelerator instances, each running
// its own copy of the workload trace (the paper's setup), on the named
// memory technology with the given in-flight cap. Cancelling ctx aborts the
// event loop promptly and returns ctx.Err(). Options layer warm-start
// checkpointing, liveness guarding and observability onto the same run; see
// WithWarmStart, WithWatchdog, WithTracer, WithStateHash, WithStats.
func Run(ctx context.Context, spec RunSpec, opts ...Option) (sim.Tick, error) {
	var o runOpts
	for _, opt := range opts {
		opt(&o)
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if o.warmup > 0 && o.cache != nil {
		return runWarm(ctx, spec, &o)
	}
	return runCold(ctx, spec, &o)
}

// attach wires the pre-run observability and guarding options into a built
// system. It returns the attached watchdog (nil when unguarded) so callers
// can detach it around checkpoint saves.
func (o *runOpts) attach(s *soc.System) (*guard.Watchdog, error) {
	if o.trace != nil {
		if _, err := s.AttachTracer(*o.trace); err != nil {
			return nil, err
		}
	}
	if o.profSink != nil {
		s.AttachSelfProfiler(o.profEvery)
	}
	if o.guard != nil {
		return s.AttachWatchdog(*o.guard), nil
	}
	return nil, nil
}

// finish runs the post-run option sinks.
func (o *runOpts) finish(s *soc.System) error {
	if o.stateHash != nil {
		h, err := s.StateHash()
		if err != nil {
			return fmt.Errorf("experiments: post-run state hash: %w", err)
		}
		*o.stateHash = h
	}
	if o.statsSink != nil {
		o.statsSink(s.Stats.SnapshotSorted())
	}
	if o.profSink != nil {
		o.profSink(prof.FromQueue(s.Queue))
	}
	return nil
}

// runCold executes the point from tick 0 with no checkpointing.
func runCold(ctx context.Context, spec RunSpec, o *runOpts) (sim.Tick, error) {
	s, err := buildPoint(spec)
	if err != nil {
		// A point that cannot build will not build on a retry either.
		return 0, Permanent(err)
	}
	wd, err := o.attach(s)
	if err != nil {
		return 0, Permanent(err)
	}
	done, err := s.RunUntilNVDLAsDoneCtx(ctx, spec.Limit)
	obs.CountEvents(s.Queue.Dispatched())
	// Stop before the finish sinks: the watchdog's host-side check event must
	// not be scheduled while StateHash serialises the queue.
	if wd != nil {
		wd.Stop()
	}
	if err != nil {
		return done, err
	}
	if ferr := o.finish(s); ferr != nil {
		return 0, ferr
	}
	return done, nil
}

// runWarm executes the point with warm-start checkpointing. On a cache hit
// it builds a fresh system, restores the snapshot and simulates only the
// remainder; on a miss it runs the warm-up prefix from tick 0, snapshots the
// full system at the warmup tick (watchdog detached around the save — its
// check event is host-side), then finishes the run. A snapshot that fails to
// restore (a stale file persisted by an older build) is dropped and the
// point transparently falls back to a cold run.
func runWarm(ctx context.Context, spec RunSpec, o *runOpts) (sim.Tick, error) {
	if blob, ok := o.cache.load(spec, o.warmup); ok {
		s, err := soc.Build(specConfig(spec))
		if err != nil {
			return 0, Permanent(err)
		}
		if o.trace != nil {
			if _, err := s.AttachTracer(*o.trace); err != nil {
				return 0, Permanent(err)
			}
		}
		if o.profSink != nil {
			// Attach before the restore so the snapshot's attribution
			// counts fold straight into the live profiler.
			s.AttachSelfProfiler(o.profEvery)
		}
		if _, err := s.Restore(bytes.NewReader(blob)); err == nil {
			o.cache.countHit()
			var wd *guard.Watchdog
			if o.guard != nil {
				wd = s.AttachWatchdog(*o.guard)
			}
			done, err := s.RunUntilNVDLAsDoneCtx(ctx, spec.Limit)
			obs.CountEvents(s.Queue.Dispatched())
			if wd != nil {
				wd.Stop()
			}
			if err != nil {
				return done, err
			}
			if ferr := o.finish(s); ferr != nil {
				return 0, ferr
			}
			return done, nil
		}
		o.cache.countStale()
		o.cache.drop(spec, o.warmup)
	}
	s, err := buildPoint(spec)
	if err != nil {
		return 0, Permanent(err)
	}
	wd, err := o.attach(s)
	if err != nil {
		return 0, Permanent(err)
	}
	done, remaining, err := s.RunNVDLAPhase(ctx, o.warmup)
	if err != nil {
		if wd != nil {
			wd.Stop()
		}
		return 0, err
	}
	if remaining == 0 {
		// Finished inside the warm-up window; nothing worth snapshotting.
		if wd != nil {
			wd.Stop()
		}
		if ferr := o.finish(s); ferr != nil {
			return 0, ferr
		}
		return done, nil
	}
	// The watchdog's check event is host-side and not serialisable; detach
	// it around the save and re-attach for the remainder.
	if wd != nil {
		wd.Stop()
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		return 0, fmt.Errorf("experiments: warm-start snapshot for %v: %w", spec, err)
	}
	o.cache.store(spec, o.warmup, buf.Bytes())
	if o.guard != nil {
		wd = s.AttachWatchdog(*o.guard)
	}
	total, err := s.RunUntilNVDLAsDoneCtx(ctx, spec.Limit)
	obs.CountEvents(s.Queue.Dispatched())
	if wd != nil {
		wd.Stop()
	}
	if err != nil {
		return total, err
	}
	if ferr := o.finish(s); ferr != nil {
		return 0, ferr
	}
	return total, nil
}
