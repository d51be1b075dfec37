// Command pmurun reproduces the PMU use case (§6.1): it runs the three-sort
// benchmark on the simulated SoC with the PMU RTL model attached and prints
// the Figure 5 interval series (PMU vs gem5 IPC and MPKI over time). The
// Table 2 overhead study is `overhead -table 2`.
package main

import (
	"flag"
	"fmt"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/hostflag"
)

func main() {
	host := hostflag.Register("pmurun")
	n := flag.Int("n", 250, "selection/bubble sort array size (quicksort gets 10x)")
	sleepUs := flag.Int("sleep-us", 100, "inter-phase sleep in microseconds")
	interval := flag.Int("interval", 10000, "PMU interrupt period in PMU cycles")
	flag.Parse()

	ctx := host.Start()
	res, err := experiments.RunFigure5Ctx(ctx, experiments.Fig5Params{
		N: *n, SleepUs: *sleepUs, IntervalCycles: *interval, SelfProfile: host.SelfProfile})
	if err != nil {
		host.Fatal(err)
	}
	if sink := host.ProfileSink(); sink != nil {
		sink(res.Attr)
	}
	fmt.Println("# Figure 5: IPC/MPKI over time, PMU counters vs gem5 statistics")
	fmt.Println("# time_ms  pmu_ipc  gem5_ipc  pmu_mpki  gem5_mpki")
	for _, s := range res.Samples {
		fmt.Printf("%8.4f  %7.3f  %8.3f  %8.2f  %9.2f\n",
			s.TimeMs, s.PMUIPC, s.Gem5IPC, s.PMUMPKI, s.Gem5MPKI)
	}
	fmt.Printf("# totals: PMU committed=%d gem5 committed=%d (loss %.3f%%)\n",
		res.PMUTotalInsts, res.Gem5TotalInsts,
		100*(1-float64(res.PMUTotalInsts)/float64(res.Gem5TotalInsts)))
	fmt.Printf("# simulated %v ticks in %v host time\n", res.SimTicks, res.HostTime)
	host.Finish()
}
