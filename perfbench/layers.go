package main

import (
	"strings"

	"gem5rtl/internal/mem"
	"gem5rtl/internal/prof"
	"gem5rtl/internal/sim"
)

// sizes fixes every input size of the three workloads.
type sizes struct {
	// dse-grid: sanity3 Figure 7 grid at GridScale, warm-start snapshots at
	// GridWarmup (below the shortest point, so every point snapshots), and
	// CachedReps cached resubmissions per iteration.
	GridScale  int
	GridWarmup sim.Tick
	CachedReps int
	// nvdla-contended: googlenet on 4 NVDLAs over DDR4-1ch at DLAScale; the
	// Table 3 googlenet rows at T3Scale.
	DLAScale int
	T3Scale  int
	// pmu-sort: Table 2 sort at SortN elements with SortSleepUs sleeps; the
	// Figure 5 check run at Fig5N.
	SortN       int
	SortSleepUs int
	Fig5N       int
}

// sizeTable maps the input size names to inputs. "full" is the benchmark;
// "tiny" keeps the self-tests fast. Both have goldens.
var sizeTable = map[string]sizes{
	"full": {
		GridScale: 32, GridWarmup: 1500 * sim.Nanosecond, CachedReps: 30,
		DLAScale: 4, T3Scale: 1,
		SortN: 200, SortSleepUs: 20, Fig5N: 40,
	},
	"tiny": {
		GridScale: 512, GridWarmup: 200 * sim.Nanosecond, CachedReps: 2,
		DLAScale: 64, T3Scale: 64,
		SortN: 16, SortSleepUs: 5, Fig5N: 10,
	},
}

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric besides the per-span self
// times; a workload that does not exercise a layer reports it as 0.
var layerMetrics = []layerMetric{
	{"trace.gen_s", "s"}, {"trace.bytes", "bytes"},
	{"soc.build_s", "s"}, {"soc.build_alloc_mb", "MB"},
	{"sim.events", "count"}, {"sim.host_ns_per_event", "ns"},
	{"sim.events.nvdla_tick", "count"}, {"sim.events.dram_issue", "count"},
	{"sim.events.dram_drain", "count"}, {"sim.events.dram_read_done", "count"},
	{"sim.events.mem_xbar", "count"}, {"sim.events.cpu", "count"},
	{"sim.events.caches", "count"}, {"sim.events.pmu_tick", "count"},
	{"sim.events.pmu_rtl", "count"},
	{"nvdla.busy_cycles", "count"}, {"nvdla.stall_cycles", "count"},
	{"nvdla.idle_cycles", "count"}, {"nvdla.useful_tick_ratio", "ratio"},
	{"nvdla.standalone_s", "s"}, {"nvdla.table3_ratio_ideal", "ratio"},
	{"nvdla.table3_ratio_ddr4", "ratio"},
	{"rtlobject.ticks", "count"}, {"rtlobject.stall_cycles", "count"},
	{"rtlobject.mem_reads", "count"}, {"rtlobject.avg_mem_latency_ns", "ns"},
	{"mem.reads", "count"}, {"mem.writes", "count"}, {"mem.row_hit_rate", "ratio"},
	{"mem.retries_sent", "count"}, {"mem.retries_per_access", "ratio"},
	{"mem.host_ns_per_access.shallow", "ns"}, {"mem.host_ns_per_access.deep", "ns"},
	{"noc.events", "count"},
	{"cache.l1d_hits", "count"}, {"cache.l1d_misses", "count"},
	{"cache.llc_misses", "count"}, {"cache.mshr_stalls", "count"},
	{"cpu.committed_insts", "count"}, {"cpu.ipc", "ratio"}, {"cpu.host_inst_rate", "1/s"},
	{"rtl.host_ns_per_pmu_tick", "ns"}, {"pmu.overhead_ratio", "ratio"},
	{"rtl.vcd_host_ns_per_tick", "ns"}, {"rtl.vcd_bytes", "bytes"},
	{"pmu.waveform_ratio", "ratio"},
	{"verilog.compile_s", "s"}, {"vhdl.compile_s", "s"},
	{"ckpt.save_s", "s"}, {"ckpt.bytes", "bytes"}, {"ckpt.state_hash_s", "s"},
	{"ckpt.restore_s", "s"},
	{"sweepd.exec_s", "s"}, {"sweepd.service_s", "s"},
	{"sweepd.restart_exec_s", "s"}, {"sweepd.restart_service_s", "s"},
	{"sweepd.cached_resubmit_s", "s"}, {"sweepd.ckpt_hit_ratio", "ratio"},
	{"bench.trace_overhead", "ratio"},
}

// addEvents folds a self-profiler report's exact event counts into the
// ledger: the total and the per-component classes. Sampled host-time
// shares are not used; they depend on the sampling cadence.
func addEvents(led map[string]float64, rep *prof.Report) {
	if rep == nil {
		return
	}
	dram := map[string]bool{}
	for _, t := range mem.TechNames() {
		dram[t] = true
	}
	for _, s := range rep.Samples {
		n := float64(s.Events)
		c, k := s.Component, s.Kind
		// The PMU rtl-* phases are sub-attributions inside PMU ticks, not
		// dispatched events; they stay out of the dispatch total.
		if c != "pmu" || !strings.HasPrefix(k, "rtl-") {
			led["sim.events"] += n
		}
		switch {
		case strings.HasPrefix(c, "nvdla") && k == "tick":
			led["sim.events.nvdla_tick"] += n
		case dram[c] && k == "issue":
			led["sim.events.dram_issue"] += n
		case dram[c] && k == "drain":
			led["sim.events.dram_drain"] += n
		case dram[c] && k == "readDone":
			led["sim.events.dram_read_done"] += n
		case c == "pmu" && k == "tick":
			led["sim.events.pmu_tick"] += n
		case c == "pmu" && strings.HasPrefix(k, "rtl-"):
			led["sim.events.pmu_rtl"] += n
		case isCore(c):
			led["sim.events.cpu"] += n
		case c == "llc" || strings.HasSuffix(c, ".l1i") || strings.HasSuffix(c, ".l1d") || strings.HasSuffix(c, ".l2"):
			led["sim.events.caches"] += n
		}
		if c == "mem_xbar" {
			led["sim.events.mem_xbar"] += n
		}
		if strings.HasSuffix(c, "_xbar") || strings.HasSuffix(c, ".l2mux") {
			led["noc.events"] += n
		}
	}
}

// isCore reports whether a profiler component is a CPU core ("cpu<N>").
func isCore(c string) bool {
	d := strings.TrimPrefix(c, "cpu")
	if d == c || d == "" {
		return false
	}
	for _, r := range d {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}
