// Package kernelbench is the repeatable event-kernel benchmark suite behind
// `make bench` and the CI benchmark job. One set of benchmark bodies is
// shared by two entry points: the `go test -bench BenchmarkKernel` wrapper
// (interactive profiling) and cmd/kernelbench (which runs the suite via
// testing.Benchmark and emits/compares the BENCH_kernel.json baseline).
//
// The suite has three tiers:
//
//   - queue/* — event-queue microbenchmarks, run on both the calendar
//     queue and the reference binary heap so their ratio (the calendar
//     speedup) is a machine-independent quantity; queue/profiled repeats
//     the calendar run with the self-profiler attached — a worst-case
//     bound on the dispatch-boundary hook, since the churn benchmark's
//     event bodies do no work of their own;
//   - packet/pool — the pooled packet fast path;
//   - rtl/* — the PMU RTL model ticked under the closure reference engine
//     and the optimizing bytecode engine, so their ratio (the RTL compile
//     speedup) is a machine-independent quantity;
//   - sweep/* — the 12-config sanity3 DSE grid of BenchmarkSweep, cold,
//     warm-start and self-profiled, exercising the whole simulator;
//     MeasureSelfProfOverhead separately derives the selfprof overhead
//     (gated in CI) from drift-cancelling alternating passes, holding the
//     profiler to its <5% whole-run budget.
//
// PERFORMANCE.md documents how to run the suite and how the JSON baseline
// is compared.
package kernelbench

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/pmu"
	"gem5rtl/internal/port"
	"gem5rtl/internal/rtl"
	"gem5rtl/internal/sim"
)

// Bench is one suite entry.
type Bench struct {
	// Name identifies the benchmark in BENCH_kernel.json ("queue/calendar").
	Name string
	// Run is the standard benchmark body.
	Run func(b *testing.B)
}

// Suite returns the full kernel benchmark suite in a fixed order.
func Suite() []Bench {
	return []Bench{
		{"queue/calendar", func(b *testing.B) { benchQueueChurn(b, false, false) }},
		{"queue/reference", func(b *testing.B) { benchQueueChurn(b, true, false) }},
		{"queue/profiled", func(b *testing.B) { benchQueueChurn(b, false, true) }},
		{"queue/oneshot", benchOneShot},
		{"packet/pool", benchPacketPool},
		{"rtl/closure", func(b *testing.B) { benchRTL(b, rtl.EngineClosure) }},
		{"rtl/bytecode", func(b *testing.B) { benchRTL(b, rtl.EngineBytecode) }},
		{"sweep/cold", func(b *testing.B) { benchSweep(b, false, false) }},
		{"sweep/warm", func(b *testing.B) { benchSweep(b, true, false) }},
		{"sweep/profiled", func(b *testing.B) { benchSweep(b, false, true) }},
	}
}

// benchQueueChurn measures steady-state Schedule/dispatch throughput on a
// mixed event population: 64 near-future tickers at coprime clock-like
// periods (the common case: every component reschedules within the calendar
// window) plus 4 far tickers that land in the spill heap each round. One op
// = one event dispatch. Every event carries an owner tag (tagging is always
// on in real components), so the profiled row differs from queue/calendar by
// exactly the attached profiler — their ns/op ratio is the dispatch-hook
// overhead.
func benchQueueChurn(b *testing.B, reference, profiled bool) {
	var q *sim.EventQueue
	if reference {
		q = sim.NewReferenceEventQueue()
	} else {
		q = sim.NewEventQueue()
	}
	if profiled {
		q.AttachProfiler(sim.DefaultProfileEvery)
	}
	periods := []sim.Tick{500, 625, 750, 1000, 1250, 2000, 3125, 10000}
	var events []*sim.Event
	for i := 0; i < 64; i++ {
		i := i
		p := periods[i%len(periods)]
		owner := q.Owner(fmt.Sprintf("bench%d", i%8), "tick")
		var ev *sim.Event
		ev = sim.NewEvent(fmt.Sprintf("tick%d", i), func() {
			q.Schedule(ev, q.Now()+p)
		}).SetOwner(owner)
		events = append(events, ev)
		q.Schedule(ev, sim.Tick(1+i))
	}
	for i := 0; i < 4; i++ {
		i := i
		far := sim.Tick(100_000 + 7_000*i) // beyond the calendar window
		var ev *sim.Event
		ev = sim.NewEvent(fmt.Sprintf("far%d", i), func() {
			q.Schedule(ev, q.Now()+far)
		})
		events = append(events, ev)
		q.Schedule(ev, far)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Step()
	}
	b.StopTimer()
	for _, ev := range events {
		q.Deschedule(ev)
	}
}

// benchOneShot measures the pooled fire-and-forget path: schedule one
// recycled one-shot and dispatch it. Steady state must not allocate.
func benchOneShot(b *testing.B) {
	q := sim.NewEventQueue()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.ScheduleOneShot("os", q.Now()+10, fn)
		q.Step()
	}
}

// benchPacketPool measures the pooled packet round trip the memory system
// performs per access: Get, materialise a response payload, Release.
func benchPacketPool(b *testing.B) {
	var pool port.PacketPool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := pool.GetRead(0x1000, 64)
		pkt.MakeResponse()
		pkt.AllocateData()
		pkt.Release()
	}
}

// benchRTL measures the RTL hot path — one full PMU model clock cycle under
// the given engine — on the duty cycle the SoC actually presents: the PMU is
// clocked every cycle, but commit/miss event pulses arrive in bursts (one
// active cycle in eight here) with idle cycles between them. One op = one
// Tick. Both engine rows run the identical stimulus, so their ns/op ratio —
// the RTL compile speedup — measures how the engines split the same work:
// the closure engine re-evaluates the whole model every cycle while the
// bytecode engine's dirty-set gating elides the quiet cycles' evaluations.
// Steady state must not allocate on either engine.
func benchRTL(b *testing.B, engine rtl.Engine) {
	m, err := pmu.CompileModelEngine(pmu.NumCounters, engine)
	if err != nil {
		b.Fatal(err)
	}
	// Enable every event line through the AXI port (one configuration
	// write), then idle the port for the timed loop.
	m.SetInput("awvalid", 1)
	m.SetInput("awaddr", pmu.RegEnable)
	m.SetInput("wdata", (1<<6)-1)
	m.Tick()
	m.SetInput("awvalid", 0)
	events := m.InputID("events")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ev uint64
		if i&7 == 0 {
			ev = uint64(i>>3)&0x3f | 1 // commit burst; bit 0 always pulses
		}
		m.SetInputID(events, ev)
		m.Tick()
	}
}

// MeasureSelfProfOverhead times alternating unprofiled/profiled sequential
// passes over the 12-config DSE grid and returns the median profiled/cold
// wall-time ratio (1.00 = free). Alternating within each pair — rather than
// timing all cold passes and then all profiled passes, as the benchmark
// suite's independent rows do — cancels slow machine drift, which on a busy
// host is larger than the profiler's own cost; the median over pairs then
// discards outlier passes. One warm-up pass runs untimed first so lazy
// construction caches don't land in the first pair.
func MeasureSelfProfOverhead(pairs int, logf func(format string, args ...any)) float64 {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	specs := sweepSpecs()
	run := func(profiled bool) (float64, error) {
		r := experiments.Runner{Workers: 1}
		if profiled {
			r.SelfProfile = sim.DefaultProfileEvery
		}
		start := time.Now()
		results, err := r.Sweep(context.Background(), specs)
		if err != nil {
			return 0, err
		}
		for _, res := range results {
			if res.Err != nil {
				return 0, fmt.Errorf("%v: %w", res.Spec, res.Err)
			}
		}
		return float64(time.Since(start).Nanoseconds()), nil
	}
	if _, err := run(false); err != nil {
		logf("selfprof overhead measurement failed: %v", err)
		return 0
	}
	ratios := make([]float64, 0, pairs)
	for i := 0; i < pairs; i++ {
		cold, err := run(false)
		if err != nil || cold <= 0 {
			logf("selfprof overhead measurement failed: %v", err)
			return 0
		}
		prof, err := run(true)
		if err != nil {
			logf("selfprof overhead measurement failed: %v", err)
			return 0
		}
		ratios = append(ratios, prof/cold)
		logf("  selfprof pair %d/%d: %.3fx", i+1, pairs, prof/cold)
	}
	sort.Float64s(ratios)
	return ratios[len(ratios)/2]
}

// sweepSpecs is the 12-config sanity3 grid of BenchmarkSweep.
func sweepSpecs() []experiments.RunSpec {
	p := experiments.DSEParams{Scale: 32, Limit: 8 * sim.Second}
	var specs []experiments.RunSpec
	for _, inflight := range []int{1, 16, 64, 240} {
		for _, mem := range []string{"DDR4-1ch", "DDR4-4ch", "HBM"} {
			specs = append(specs, p.Spec("sanity3", 1, mem, inflight))
		}
	}
	return specs
}

// benchSweep measures one sequential pass over the 12-point DSE grid — the
// macro benchmark the ISSUE acceptance targets. warm restores each point
// from a 2µs checkpoint instead of simulating the prefix; profiled attaches
// the self-profiler to every point, so the profiled/cold ratio is the
// whole-simulator profiling overhead on realistic work (the gated
// selfprof_overhead column, budget <5%).
func benchSweep(b *testing.B, warm, profiled bool) {
	specs := sweepSpecs()
	r := experiments.Runner{Workers: 1}
	if profiled {
		r.SelfProfile = sim.DefaultProfileEvery
	}
	if warm {
		r.Options = []experiments.Option{
			experiments.WithWarmStart(2*sim.Microsecond, experiments.NewCheckpointCache("")),
		}
		if _, err := r.Sweep(context.Background(), specs); err != nil {
			b.Fatal(err) // populate the cache outside the timing loop
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := r.Sweep(context.Background(), specs)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			if res.Err != nil {
				b.Fatalf("%v: %v", res.Spec, res.Err)
			}
		}
	}
}
