package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gem5rtl/internal/port"
	"gem5rtl/internal/rtl"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// kernelGoldenSpecs is the 12-config NVDLA grid of BenchmarkSweep: sanity3,
// one accelerator, every memory technology crossed with four in-flight caps.
func kernelGoldenSpecs() []RunSpec {
	p := DSEParams{Scale: 32, Limit: 8 * sim.Second}
	var specs []RunSpec
	for _, inflight := range []int{1, 16, 64, 240} {
		for _, mem := range []string{"DDR4-1ch", "DDR4-4ch", "HBM"} {
			specs = append(specs, p.Spec("sanity3", 1, mem, inflight))
		}
	}
	return specs
}

type kernelGoldenEntry struct {
	Spec  string   `json:"spec"`
	Ticks sim.Tick `json:"ticks"`
	Hash  string   `json:"state_hash"`
}

// runKernelGoldenPoint executes one grid point from a deterministic packet-ID
// origin and digests the full post-run system state.
func runKernelGoldenPoint(t *testing.T, spec RunSpec) kernelGoldenEntry {
	t.Helper()
	port.SetPacketIDForTest(0)
	s, _, err := build(spec, &runOpts{}, nil)
	if err != nil {
		t.Fatalf("%v: build: %v", spec, err)
	}
	done, err := s.RunUntilNVDLAsDoneCtx(context.Background(), spec.Limit)
	if err != nil {
		t.Fatalf("%v: run: %v", spec, err)
	}
	hash, err := s.StateHash()
	if err != nil {
		t.Fatalf("%v: hash: %v", spec, err)
	}
	return kernelGoldenEntry{Spec: spec.String(), Ticks: done, Hash: fmt.Sprintf("%016x", hash)}
}

// TestKernelGoldenStateHash pins the final simulated time AND the full
// serialised system state (StateHash) of every point in the 12-config NVDLA
// grid. It is the bit-identity witness for hot-path changes: any event-queue
// or allocation optimisation that perturbs event order, packet IDs, stats, or
// checkpoint bytes fails here. Regenerate with -update only for changes that
// intentionally alter simulated behaviour.
func TestKernelGoldenStateHash(t *testing.T) {
	if testing.Short() {
		t.Skip("full 12-config grid is not -short friendly")
	}
	base := port.PacketIDMark()
	defer port.SetPacketIDForTest(base)

	var got []kernelGoldenEntry
	for _, spec := range kernelGoldenSpecs() {
		got = append(got, runKernelGoldenPoint(t, spec))
	}

	path := filepath.Join("testdata", "kernel_golden.json")
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to capture): %v", err)
	}
	var want []kernelGoldenEntry
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d entries, grid has %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("grid point %s diverged:\n  got  ticks=%d hash=%s\n  want ticks=%d hash=%s",
				got[i].Spec, got[i].Ticks, got[i].Hash, want[i].Ticks, want[i].Hash)
		}
	}
}

// readKernelGolden loads the pinned grid results.
func readKernelGolden(t *testing.T) []kernelGoldenEntry {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("testdata", "kernel_golden.json"))
	if err != nil {
		t.Fatalf("missing golden file (run TestKernelGoldenStateHash -update to capture): %v", err)
	}
	var want []kernelGoldenEntry
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestShardedCrossEngine runs a PMU program spec — the only SoC run that
// compiles RTL — on the closure reference engine (through
// soc.UseClosureEngineForTest) and on the production bytecode engine: both
// must end at the same tick with the same full-system StateHash, because
// the engine is an execution strategy, not a modelling choice. (The name
// dates from when the check also crossed engines with sharded builds; the
// simulator now runs serially only.)
func TestShardedCrossEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("not -short friendly")
	}
	spec := RunSpec{Memory: "DDR4-1ch", Limit: 50 * sim.Millisecond,
		Program: "sort", N: 20, SleepUs: 5, PMU: true, PMUInterval: 500}
	base := port.PacketIDMark()
	defer port.SetPacketIDForTest(base)
	run := func(closure bool) (sim.Tick, uint64) {
		t.Helper()
		soc.UseClosureEngineForTest(closure)
		defer soc.UseClosureEngineForTest(false)
		port.SetPacketIDForTest(0)
		var hash uint64
		var engine rtl.Engine
		ticks, err := Run(context.Background(), spec, WithStateHash(&hash),
			WithSystem(func(s *soc.System) error { engine = s.PMUWrapper.Model().Engine(); return nil }))
		if err != nil {
			t.Fatal(err)
		}
		want := rtl.EngineBytecode
		if closure {
			want = rtl.EngineClosure
		}
		if engine != want {
			t.Fatalf("PMU ran on the %s engine, want %s", engine, want)
		}
		return ticks, hash
	}
	t.Run("closure", func(t *testing.T) {
		wantTicks, wantHash := run(false)
		if ticks, hash := run(true); ticks != wantTicks || hash != wantHash {
			t.Errorf("closure engine diverged on %s:\n  got  ticks=%d hash=%016x\n  want ticks=%d hash=%016x",
				spec, ticks, hash, wantTicks, wantHash)
		}
	})
}

// TestReferenceQueueMatchesGolden replays the same 12-config grid with the
// pure binary-heap reference queue and checks it against the same golden
// file. Together with TestKernelGoldenStateHash (which runs the calendar
// queue) this proves the two event-queue implementations produce identical
// StateHash values on every grid point — the determinism contract of the
// kernel rewrite.
func TestReferenceQueueMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full 12-config grid is not -short friendly")
	}
	base := port.PacketIDMark()
	defer port.SetPacketIDForTest(base)
	sim.UseReferenceQueueForTest(true)
	defer sim.UseReferenceQueueForTest(false)

	want := readKernelGolden(t)
	specs := kernelGoldenSpecs()
	if len(want) != len(specs) {
		t.Fatalf("golden file has %d entries, grid has %d", len(want), len(specs))
	}
	for i, spec := range specs {
		got := runKernelGoldenPoint(t, spec)
		if got != want[i] {
			t.Errorf("reference queue diverged on %s:\n  got  ticks=%d hash=%s\n  want ticks=%d hash=%s",
				got.Spec, got.Ticks, got.Hash, want[i].Ticks, want[i].Hash)
		}
	}
}
