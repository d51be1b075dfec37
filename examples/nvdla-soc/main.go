// nvdla-soc: the paper's second use case as a runnable example. One NVDLA
// accelerator is integrated into the Table 1 SoC (CSB on a CPU-side port,
// DBBIF/SRAMIF onto the memory crossbar), the sanity3 trace is loaded into
// main memory, and the accelerator runs to its completion interrupt — once
// on DDR4-1ch and once on HBM, showing the memory-technology sensitivity
// the design-space exploration quantifies.
package main

import (
	"context"
	"fmt"
	"log"

	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/trace"
)

func run(memName string) (sim.Tick, error) {
	cfg := soc.DefaultConfig()
	cfg.Cores = 1
	cfg.Memory = memName
	cfg.NVDLAs = 1
	cfg.NVDLAMaxInflight = 64
	s, err := soc.Build(cfg)
	if err != nil {
		return 0, err
	}
	s.NVDLAs[0].Start()
	tr, err := trace.Scaled("sanity3", 1<<32, 16)
	if err != nil {
		return 0, err
	}
	s.PlayTrace(0, tr)
	done, err := s.RunUntilNVDLAsDoneCtx(context.Background(), 4*sim.Second)
	if err != nil {
		return 0, err
	}
	st := s.NVDLAWrappers[0].Stats()
	fmt.Printf("%-9s finished in %8.3f us  (busy %d, memory-stall %d cycles; %d KiB read)\n",
		memName, float64(done)/float64(sim.Microsecond),
		st.BusyCycles, st.StallCycles, st.BytesRead/1024)
	return done, nil
}

func main() {
	fmt.Println("sanity3 on one NVDLA, 64 in-flight requests:")
	ddr, err := run("DDR4-1ch")
	if err != nil {
		log.Fatal(err)
	}
	hbm, err := run("HBM")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nHBM speedup over DDR4-1ch: %.2fx — the memory-bandwidth gap\n",
		float64(ddr)/float64(hbm))
	fmt.Println("Figure 7 sweeps this across in-flight caps, technologies and instance counts.")
}
