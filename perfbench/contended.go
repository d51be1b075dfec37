package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/prof"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/trace"
)

// contendedWorkload is one long Figure 6 point with DRAM queues kept full
// (googlenet, 4 NVDLAs, DDR4-1ch, a deep in-flight cap), its ideal-memory
// baseline, and the googlenet rows of Table 3: standalone RTL, perfect
// memory and DDR4-4ch.
var contendedWorkload = &workload{
	name:    "nvdla-contended",
	stages:  [3]string{"contended_s", "table3_s", "contended_ideal_s"},
	iterate: contendedIterate,
	ledger:  contendedLedger,
}

// The contended point's in-flight caps: deep enough that the DRAM queues
// stay full (timed), and shallow (the traced contrast).
const deepCap, shallowCap = 64, 16

// contendedSpec is the Figure 6 point at in-flight cap inflight.
func contendedSpec(sz sizes, memory string, inflight int) experiments.RunSpec {
	return experiments.DSEParams{Scale: sz.DLAScale, Limit: pointLimit}.Spec("googlenet", 4, memory, inflight)
}

// table3Spec is a Table 3 full-system row (one NVDLA, in-flight cap 240).
func table3Spec(sz sizes, memory string) experiments.RunSpec {
	return experiments.DSEParams{Scale: sz.T3Scale, Limit: pointLimit}.Spec("googlenet", 1, memory, 240)
}

func contendedIterate(e *env, root int) (sample, error) {
	var smp sample
	deep := contendedSpec(e.sz, "DDR4-1ch", deepCap)
	ideal := contendedSpec(e.sz, "ideal", deepCap)
	t3ideal, t3ddr := table3Spec(e.sz, "ideal"), table3Spec(e.sz, "DDR4-4ch")

	// Each round builds every system it simulates, and the standalone
	// run's trace, as set-up timed apart from simulation. Then it runs the
	// deep point, its ideal-memory baseline and the Table 3 rows in turn,
	// so a slow spell of the host falls on all three stages alike. Each
	// stage reports the median of its runs; set-up adds up. Every build
	// and every point starts after an untimed collection, so none pays for
	// another's garbage and the heap's peak does not depend on when the
	// collector happened to run.
	var deeps, ideals, rows, solos, t3is, t3ds []float64
	for k := 0; k < contendedRounds; k++ {
		for i, spec := range []experiments.RunSpec{deep, ideal, t3ideal, t3ddr} {
			err := timedSetup(e, root, &smp, func(setup int) error {
				_, err := buildPoint(e, setup, i, spec, true)
				return err
			})
			if err != nil {
				return smp, err
			}
		}
		var standalone *trace.Trace
		err := timedSetup(e, root, &smp, func(setup int) error {
			return e.tr.do(spanTraceGen, setup, -1, "standalone", func() error {
				var err error
				standalone, err = trace.Scaled("googlenet", 0, e.sz.T3Scale)
				return err
			})
		})
		if err != nil {
			return smp, err
		}

		stage := e.tr.begin(spanStage, root, -1, "contended")
		deepRun, err := runPoint(e, stage, "contended", deep)
		e.tr.end(stage)
		if err != nil {
			return smp, err
		}
		deeps = append(deeps, deepRun.wall.Seconds())
		if e.traced() && k == 0 {
			deepRun.account(e.led)
		}

		stage = e.tr.begin(spanStage, root, -1, "contended-ideal")
		r, err := runPoint(e, stage, "contended-ideal", ideal)
		e.tr.end(stage)
		if err != nil {
			return smp, err
		}
		ideals = append(ideals, r.wall.Seconds())

		solo, t3i, t3d, err := table3Rows(e, root, standalone, t3ideal, t3ddr)
		if err != nil {
			return smp, err
		}
		rows = append(rows, (solo + t3i + t3d).Seconds())
		solos = append(solos, solo.Seconds())
		t3is = append(t3is, t3i.Seconds())
		t3ds = append(t3ds, t3d.Seconds())
	}
	smp.runs = [3][]float64{deeps, rows, ideals}
	smp.parts = map[string]time.Duration{"standalone": seconds(median(solos)),
		"table3-ideal": seconds(median(t3is)), "table3-ddr4": seconds(median(t3ds))}
	if e.traced() {
		e.led["nvdla.standalone_s"] = median(solos)
	}
	return smp, nil
}

// timedSetup runs one set-up step under a setup span after an untimed
// collection and adds its time to the sample's set-up.
func timedSetup(e *env, root int, smp *sample, step func(setup int) error) error {
	runtime.GC()
	t0 := time.Now()
	setup := e.tr.begin(spanSetup, root, -1, "")
	err := step(setup)
	e.tr.end(setup)
	smp.setup += time.Since(t0)
	return err
}

// contendedRounds is how many rounds an iteration makes.
const contendedRounds = 3

// table3Rows runs the three Table 3 googlenet rows once: standalone RTL,
// perfect memory and DDR4-4ch.
func table3Rows(e *env, root int, standalone *trace.Trace, t3ideal, t3ddr experiments.RunSpec) (solo, t3i, t3d time.Duration, err error) {
	stage := e.tr.begin(spanStage, root, -1, "table3")
	defer e.tr.end(stage)
	err = e.tr.do(spanStandalone, stage, -1, "", func() error {
		var err error
		solo, err = trace.RunStandaloneCtx(context.Background(), standalone)
		return err
	})
	if err != nil {
		return
	}
	ri, err := runPoint(e, stage, "table3-ideal", t3ideal)
	if err != nil {
		return
	}
	rd, err := runPoint(e, stage, "table3-ddr4", t3ddr)
	return solo, ri.wall, rd.wall, err
}

// pointRun is one executed point. sys and attr are set in traced runs only.
type pointRun struct {
	ticks sim.Tick
	wall  time.Duration // whole point: build and simulation
	sys   *soc.System
	attr  *prof.Report
}

// runPoint executes one point and checks it. Untraced, it goes through
// experiments.Run and checks ticks and the final StateHash. Traced, it
// takes the same steps through soc (so component statistics and the
// self-profiler's event counts are readable) and checks ticks only: the
// profiler's attribution table is part of the checkpoint stream, so the
// hash differs from the untraced one by design. A collection runs first,
// untimed, so the point pays for no earlier point's garbage.
func runPoint(e *env, parent int, name string, spec experiments.RunSpec) (pointRun, error) {
	var r pointRun
	runtime.GC()
	if !e.traced() {
		var hash uint64
		t0 := time.Now()
		ticks, err := experiments.Run(context.Background(), spec, experiments.WithStateHash(&hash))
		r.wall, r.ticks = time.Since(t0), ticks
		if err != nil {
			return r, fmt.Errorf("%v: %w", spec, err)
		}
		e.chk.point(name, "ticks", itoa(uint64(ticks)), "state_hash", fmt.Sprintf("%016x", hash))
		return r, nil
	}
	t0 := time.Now()
	id := e.tr.begin(spanExpRun, parent, -1, spec.String())
	defer e.tr.end(id)
	s, err := buildPoint(e, id, -1, spec, false)
	if err != nil {
		return r, err
	}
	s.AttachSelfProfiler(0)
	sid := e.tr.begin(spanSimRun, id, -1, "")
	r.ticks, err = s.RunUntilNVDLAsDoneCtx(context.Background(), pointLimit)
	e.tr.end(sid)
	r.wall = time.Since(t0)
	if err != nil {
		return r, fmt.Errorf("%v: %w", spec, err)
	}
	r.sys, r.attr = s, prof.FromQueues(s.ShardQueues...)
	e.chk.point(name, "ticks", itoa(uint64(r.ticks)))
	return r, nil
}

// account charges a traced point's exact counts to the ledger: profiler
// event classes and the accelerator, bridge and DRAM statistics.
func (r pointRun) account(led map[string]float64) {
	addEvents(led, r.attr)
	var busy, stall, idle float64
	for _, w := range r.sys.NVDLAWrappers {
		st := w.Stats()
		busy += float64(st.BusyCycles)
		stall += float64(st.StallCycles)
		idle += float64(st.IdleCycles)
	}
	led["nvdla.busy_cycles"], led["nvdla.stall_cycles"], led["nvdla.idle_cycles"] = busy, stall, idle
	if all := busy + stall + idle; all > 0 {
		led["nvdla.useful_tick_ratio"] = busy / all
	}
	var lat, retired float64
	for _, o := range r.sys.NVDLAs {
		st := o.Stats()
		led["rtlobject.ticks"] += float64(st.Ticks)
		led["rtlobject.stall_cycles"] += float64(st.StallCycles)
		led["rtlobject.mem_reads"] += float64(st.MemReads)
		lat += float64(st.TotalMemLat)
		retired += float64(st.RetiredMem)
	}
	if retired > 0 {
		led["rtlobject.avg_mem_latency_ns"] = lat / retired / float64(sim.Nanosecond)
	}
	if d := r.sys.DRAM; d != nil {
		st := d.Stats()
		led["mem.reads"], led["mem.writes"] = float64(st.Reads), float64(st.Writes)
		led["mem.retries_sent"] = float64(st.RetriesSent)
		if rows := st.RowHits + st.RowMisses; rows > 0 {
			led["mem.row_hit_rate"] = float64(st.RowHits) / float64(rows)
		}
		if acc := st.Reads + st.Writes; acc > 0 {
			led["mem.retries_per_access"] = float64(st.RetriesSent) / float64(acc)
		}
	}
}

// dramAccesses is a traced point's DRAM reads plus writes.
func (r pointRun) dramAccesses() float64 {
	st := r.sys.DRAM.Stats()
	return float64(st.Reads + st.Writes)
}

// contendedLedger derives the timing ledger from untraced runs (the
// profiler would inflate them) and counts from traced ones: the per-access
// DRAM host cost at the deep cap and at the shallow cap, the host cost per
// event, and the Table 3 ratios.
func contendedLedger(e *env) error {
	base := e.base
	deepAcc := e.led["mem.reads"] + e.led["mem.writes"]
	if deepAcc > 0 {
		e.led["mem.host_ns_per_access.deep"] = (base.stage(0) - base.stage(2)) * 1e9 / deepAcc
	}
	if ev := e.led["sim.events"]; ev > 0 {
		e.led["sim.host_ns_per_event"] = base.stage(0) * 1e9 / ev
	}
	if solo := base.parts["standalone"]; solo > 0 {
		e.led["nvdla.table3_ratio_ideal"] = float64(base.parts["table3-ideal"]) / float64(solo)
		e.led["nvdla.table3_ratio_ddr4"] = float64(base.parts["table3-ddr4"]) / float64(solo)
	}

	// Shallow-depth contrast: the same point at the shallow cap, timed
	// untraced against its own ideal baseline, counted traced.
	shallow := contendedSpec(e.sz, "DDR4-1ch", shallowCap)
	shallowIdeal := contendedSpec(e.sz, "ideal", shallowCap)
	tr := e.tr
	e.tr = nil
	sh, err := runPoint(e, 0, "shallow", shallow)
	var shi pointRun
	if err == nil {
		shi, err = runPoint(e, 0, "shallow-ideal", shallowIdeal)
	}
	e.tr = tr
	if err != nil {
		return err
	}
	ledger := e.tr.begin(spanLedger, 0, -1, "shallow")
	counted, err := runPoint(e, ledger, "shallow", shallow)
	e.tr.end(ledger)
	if err != nil {
		return err
	}
	if acc := counted.dramAccesses(); acc > 0 {
		e.led["mem.host_ns_per_access.shallow"] = (sh.wall - shi.wall).Seconds() * 1e9 / acc
	}
	return nil
}
