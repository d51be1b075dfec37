// Command overhead reproduces the simulation-time overhead studies: Table 2
// (gem5 vs gem5+PMU vs gem5+PMU+waveform on the sort benchmark) and Table 3
// (standalone RTL-model execution vs full-system with perfect memory vs
// full-system with DDR4-4ch on the NVDLA workloads).
//
// -parallel defaults to 1 because the tables report host wall-clock times:
// concurrent workers share host cores and inflate each other's measurements.
// Raise it only for a quick shape check.
package main

import (
	"flag"
	"fmt"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/hostflag"
	"gem5rtl/internal/sim"
)

func main() {
	host := hostflag.Register("overhead")
	table := flag.Int("table", 3, "which table to reproduce: 2 or 3")
	scale := flag.Int("scale", 8, "NVDLA trace footprint divisor (table 3)")
	parallel := flag.Int("parallel", 1, "worker goroutines (keep 1 for faithful host times)")
	flag.Parse()

	ctx := host.Start()
	r := experiments.Runner{Workers: *parallel, SelfProfile: host.SelfProfile, AttrSink: host.ProfileSink()}
	switch *table {
	case 2:
		sizes := experiments.DefaultTable2Sizes()
		cells, err := r.Table2(ctx, sizes, 100)
		if err != nil {
			host.Fatal(err)
		}
		fmt.Println("# Table 2: simulation-time overhead normalised to gem5 without the PMU")
		fmt.Printf("%-22s", "Configs\\Size")
		for _, n := range sizes {
			fmt.Printf("  %8d", n)
		}
		fmt.Println()
		for _, cfg := range experiments.Table2Configs() {
			fmt.Printf("%-22s", cfg.Name)
			for _, c := range cells {
				if c.Config == cfg.Name {
					fmt.Printf("  %8.2f", c.Overhead)
				}
			}
			fmt.Println()
		}
	case 3:
		rows, err := r.Table3(ctx, experiments.DSEParams{
			Scale: *scale, Limit: 8 * sim.Second})
		if err != nil {
			host.Fatal(err)
		}
		fmt.Println("# Table 3: host time normalised to the standalone RTL-model run")
		fmt.Printf("%-28s %-10s %12s %10s\n", "config", "workload", "host", "overhead")
		for _, r := range rows {
			fmt.Printf("%-28s %-10s %12s %10.2f\n", r.Config, r.Workload,
				r.HostTime.Round(1e5), r.Overhead)
		}
	default:
		host.Fatal(fmt.Errorf("unknown table %d", *table))
	}
	host.Finish()
}
