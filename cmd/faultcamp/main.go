// Command faultcamp runs seeded fault-injection campaigns against the
// simulated system: single bit flips, lost/replayed/delayed transfers and
// DRAM upsets against the NVDLA memory path, or RTL state flips against the
// PMU model. Every injection is classified as masked, detected, corrupted or
// hung (hung runs are reaped by the liveness watchdog, never left spinning),
// and the same seed always reproduces the same classification table.
//
// Examples:
//
//	faultcamp -target nvdla -workload sanity3 -scale 64 -n 32 -seed 7
//	faultcamp -target pmu -n 16 -seed 1 -v
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/hostflag"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

func main() {
	host := hostflag.Register("faultcamp")
	target := flag.String("target", "nvdla", "campaign target: nvdla (memory-path faults) or pmu (RTL state flips)")
	workload := flag.String("workload", "sanity3", "NVDLA trace: sanity3 or googlenet")
	scale := flag.Int("scale", 64, "NVDLA trace footprint divisor")
	nvdlas := flag.Int("nvdla", 1, "number of NVDLA accelerator instances")
	memName := flag.String("mem", "ideal", "memory for -target nvdla: ideal, DDR4-1ch/2ch/4ch, GDDR5, HBM (the pmu target runs on DDR4-4ch)")
	inflight := flag.Int("inflight", 64, "per-NVDLA max in-flight memory requests")
	seed := flag.Uint64("seed", 1, "campaign seed; same seed, same classification table")
	count := flag.Int("n", 32, "number of fault injections")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker goroutines (any count yields the same table)")
	limitMs := flag.Int("limit-ms", 2000, "per-run simulated time limit in milliseconds")
	checkPorts := flag.Bool("check-ports", false, "also enforce the timing-port protocol during faulted runs")
	verbose := flag.Bool("v", false, "print watchdog/outcome details per injection")
	flag.Parse()

	if *checkPorts {
		port.Checking = true
	}
	ctx := host.Start()
	r := experiments.Runner{Workers: *parallel}
	limit := sim.Tick(*limitMs) * sim.Millisecond
	start := time.Now()
	var results []experiments.FaultResult
	var err error
	switch *target {
	case "nvdla":
		results, err = r.FaultCampaign(ctx, experiments.FaultCampaign{
			Spec: experiments.RunSpec{
				Workload: *workload, NVDLAs: *nvdlas, Memory: *memName,
				Inflight: *inflight, Scale: *scale, Limit: limit,
			},
			Seed:        *seed,
			Count:       *count,
			SelfProfile: host.SelfProfile,
			AttrSink:    host.ProfileSink(),
		})
	case "pmu":
		// The sort benchmark at a campaign-friendly size, PMU interrupting
		// every 10000 cycles.
		results, err = r.PMUFaultCampaign(ctx, experiments.PMUCampaign{
			Spec: experiments.RunSpec{Memory: "DDR4-4ch", Limit: limit, Program: "sort",
				N: 60, SleepUs: 10, PMU: true, PMUInterval: 10000},
			Seed: *seed, Count: *count,
			SelfProfile: host.SelfProfile, AttrSink: host.ProfileSink(),
		})
	default:
		err = fmt.Errorf("unknown target %q (want nvdla or pmu)", *target)
	}
	if err != nil {
		host.Fatal(err)
	}

	fmt.Printf("# %s fault campaign: seed=%d n=%d\n", *target, *seed, *count)
	for _, res := range results {
		line := fmt.Sprintf("%3d  %-44s %s", res.Index, res.Fault, res.Outcome)
		if *verbose && res.Detail != "" {
			line += "  (" + res.Detail + ")"
		}
		fmt.Println(line)
	}
	fmt.Println()
	fmt.Print(experiments.FormatFaultTable(results))
	if *verbose {
		fmt.Fprintf(os.Stderr, "# %d injections in %s host time (%d workers)\n",
			len(results), time.Since(start).Round(time.Millisecond), *parallel)
	}
	host.Finish()
}
