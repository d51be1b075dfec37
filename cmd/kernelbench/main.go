// Command kernelbench runs the event-kernel benchmark suite and maintains
// the committed BENCH_kernel.json baseline.
//
// Produce (or refresh) the baseline:
//
//	go run ./cmd/kernelbench -out BENCH_kernel.json
//
// CI gate — run the suite and fail on >10% regression against the committed
// baseline (allocs/op, B/op, the calendar-queue speedup and the RTL compile
// speedup; see PERFORMANCE.md for why raw ns/op is not gated):
//
//	go run ./cmd/kernelbench -baseline BENCH_kernel.json
package main

import (
	"flag"
	"fmt"
	"os"

	"gem5rtl/internal/kernelbench"
)

func main() {
	out := flag.String("out", "", "write BENCH_kernel.json to this path")
	baseline := flag.String("baseline", "", "compare against this committed baseline and exit non-zero on regression")
	threshold := flag.Float64("threshold", 0.10, "relative regression tolerance")
	flag.Parse()
	if *out == "" && *baseline == "" {
		fmt.Fprintln(os.Stderr, "kernelbench: need -out and/or -baseline")
		os.Exit(2)
	}

	rep := kernelbench.Collect(func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})
	fmt.Fprintf(os.Stderr, "calendar speedup vs reference heap: %.2fx\n", rep.CalendarSpeedup)
	fmt.Fprintf(os.Stderr, "rtl bytecode speedup vs closure engine: %.2fx\n", rep.RTLSpeedup)
	fmt.Fprintf(os.Stderr, "self-profiler dispatch overhead: %.3fx\n", rep.SelfProfOverhead)

	if *out != "" {
		buf, err := rep.Marshal()
		if err != nil {
			fmt.Fprintln(os.Stderr, "kernelbench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "kernelbench:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "wrote", *out)
	}

	if *baseline != "" {
		buf, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kernelbench:", err)
			os.Exit(1)
		}
		base, err := kernelbench.ParseReport(buf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kernelbench: parsing baseline:", err)
			os.Exit(1)
		}
		problems := kernelbench.Compare(rep, base, *threshold)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "REGRESSION:", p)
		}
		if len(problems) > 0 {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "no regressions vs %s (threshold %.0f%%)\n", *baseline, *threshold*100)
	}
}
