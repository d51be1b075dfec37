package soc_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/pmu"
	"gem5rtl/internal/port"
	"gem5rtl/internal/rtl"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/trace"
	"gem5rtl/internal/workload"
)

// ckptScale shrinks the DSE traces so every (memory, workload) cell runs in
// test time while still exercising tiling, both AXI interfaces and the
// in-flight cap.
const ckptScale = 64

// nvdlaSystem builds and fully sets up one accelerator run.
func nvdlaSystem(t testing.TB, memory, wl string) *soc.System {
	return nvdlaSystemN(t, memory, wl, 1)
}

// nvdlaSystemN is nvdlaSystem with n accelerators, each playing its own copy
// of the workload.
func nvdlaSystemN(t testing.TB, memory, wl string, n int) *soc.System {
	t.Helper()
	cfg := soc.DefaultConfig()
	cfg.Cores = 1
	cfg.Memory = memory
	cfg.NVDLAs = n
	cfg.NVDLAMaxInflight = 64
	s := soc.MustBuild(cfg)
	for i := 0; i < n; i++ {
		s.NVDLAs[i].Start()
		tr, err := trace.Scaled(wl, uint64(i+1)<<32, ckptScale)
		if err != nil {
			t.Fatal(err)
		}
		s.PlayTrace(i, tr)
	}
	return s
}

// fingerprint digests everything a run reports: final tick, event count and
// the full gem5-style stats dump.
func runDigest(t testing.TB, s *soc.System) string {
	t.Helper()
	var stats bytes.Buffer
	s.Stats.Dump(&stats)
	hash, err := s.StateHash()
	if err != nil {
		t.Fatalf("state hash: %v", err)
	}
	return fmt.Sprintf("tick=%d events=%d state=%#x\n%s",
		s.Queue.Now(), s.Queue.Dispatched(), hash, stats.String())
}

// TestCheckpointRestoreEquivalenceNVDLA is the subsystem's headline
// property, checked for every Table 1 memory technology and both evaluation
// workloads: checkpointing at tick T and restoring into a fresh process
// (here: a fresh Build) yields bit-identical final state and statistics to
// the uninterrupted run. Multi-accelerator cases check the same property
// when several completion interrupts must all be seen before the stop.
func TestCheckpointRestoreEquivalenceNVDLA(t *testing.T) {
	memories := []string{"ideal", "DDR4-1ch", "DDR4-2ch", "DDR4-4ch", "GDDR5", "HBM"}
	workloads := []string{"sanity3", "googlenet"}
	if testing.Short() {
		memories = []string{"ideal", "DDR4-1ch"}
		workloads = []string{"sanity3"}
	}
	type cell struct {
		name, wl, memory string
		nvdlas           int
	}
	var cells []cell
	for _, wl := range workloads {
		for _, memory := range memories {
			cells = append(cells, cell{wl + "/" + memory, wl, memory, 1})
		}
	}
	cells = append(cells, cell{"sanity3/ideal/n2", "sanity3", "ideal", 2},
		cell{"sanity3/DDR4-2ch/n4", "sanity3", "DDR4-2ch", 4})
	const limit = 8 * sim.Second
	ctx := context.Background()
	for _, c := range cells {
		wl, memory := c.wl, c.memory
		t.Run(c.name, func(t *testing.T) {
			// Packet IDs come from a process-global counter; pin it so
			// the reference and split runs see the ID sequence a fresh
			// process would (the test is sequential, so rewinding is
			// safe).
			base := port.PacketIDMark()

			// Uninterrupted reference run.
			cold := nvdlaSystemN(t, memory, wl, c.nvdlas)
			coldDone, err := cold.RunUntilNVDLAsDoneCtx(context.Background(), limit)
			if err != nil {
				t.Fatal(err)
			}
			coldDigest := runDigest(t, cold)

			// Same run split at the halfway tick.
			port.SetPacketIDForTest(base)
			split := nvdlaSystemN(t, memory, wl, c.nvdlas)
			mid := sim.Tick(coldDone / 2)
			if _, _, err := split.RunNVDLAPhase(ctx, mid); err != nil {
				t.Fatal(err)
			}
			var snap bytes.Buffer
			if err := split.Save(&snap); err != nil {
				t.Fatal(err)
			}

			// Fresh build, restore, no setup calls.
			warm := soc.MustBuild(split.Cfg)
			tick, err := warm.Restore(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if sim.Tick(tick) != warm.Queue.Now() {
				t.Fatalf("restored tick %d != queue now %d", tick, warm.Queue.Now())
			}
			warmDone, remaining, err := warm.RunNVDLAPhase(ctx, limit)
			if err != nil {
				t.Fatal(err)
			}
			if remaining != 0 {
				t.Fatalf("%d accelerators still running after restore", remaining)
			}
			if warmDone != coldDone {
				t.Errorf("completion tick diverges: cold=%d warm=%d", coldDone, warmDone)
			}
			if got := runDigest(t, warm); got != coldDigest {
				t.Errorf("restored run digest diverges:\n--- cold ---\n%s--- warm ---\n%s", coldDigest, got)
			}
		})
	}
}

// cpuSystem builds the gem5rtl-style CPU+PMU system (sort workload on core
// 0, PMU on core 0's commit/miss taps).
func cpuSystem(t testing.TB) (*soc.System, *experiments.AXIHost) {
	t.Helper()
	cfg := soc.DefaultConfig()
	cfg.Cores = 1
	cfg.Memory = "DDR4-1ch"
	cfg.WithPMU = true
	s := soc.MustBuild(cfg)
	host := experiments.NewAXIHost(s.Queue)
	port.Bind(host.Port(), s.PMU.CPUPort(0))
	return s, host
}

// TestCheckpointRestoreEquivalenceCPU covers the CPU + RTL-PMU use case:
// checkpoint mid-program (threshold programming done, counters live, core
// running), restore into a fresh build, and require identical program exit
// and statistics. The restore path performs none of the live-run setup —
// no Start, no LoadProgram, no PMU register writes.
func TestCheckpointRestoreEquivalenceCPU(t *testing.T) {
	src := workload.SortBenchmark(workload.SortParams{N: 60, SleepUs: 20})
	const limit = 100 * sim.Millisecond
	setup := func(s *soc.System, host *experiments.AXIHost) {
		s.PMU.Start()
		host.Write(pmu.RegEnable, 0x3F)
		if err := s.LoadProgram(0, src); err != nil {
			t.Fatal(err)
		}
		s.Cores[0].OnExit = func(int64) { s.Queue.ExitSimLoop("program exit") }
		s.StartCores(0)
	}

	base := port.PacketIDMark() // see TestCheckpointRestoreEquivalenceNVDLA
	cold, coldHost := cpuSystem(t)
	setup(cold, coldHost)
	cold.Queue.RunUntil(limit)
	if exited, _ := cold.Cores[0].Exited(); !exited {
		t.Fatal("reference program did not finish")
	}
	coldDigest := runDigest(t, cold)

	port.SetPacketIDForTest(base)
	split, splitHost := cpuSystem(t)
	setup(split, splitHost)
	split.Queue.RunUntil(cold.Queue.Now() / 2)
	var snap bytes.Buffer
	if err := split.Save(&snap); err != nil {
		t.Fatal(err)
	}

	warm, _ := cpuSystem(t)
	// Exit handlers are host-side closures, re-registered after restore.
	warm.Cores[0].OnExit = func(int64) { warm.Queue.ExitSimLoop("program exit") }
	// Building the warm system may itself allocate packet IDs; rewind so the
	// restore's fast-forward lands exactly on the checkpoint mark.
	port.SetPacketIDForTest(base)
	if _, err := warm.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	warm.Queue.RunUntil(limit)
	if exited, _ := warm.Cores[0].Exited(); !exited {
		t.Fatal("restored program did not finish")
	}
	if got := runDigest(t, warm); got != coldDigest {
		t.Errorf("restored run digest diverges:\n--- cold ---\n%s--- warm ---\n%s", coldDigest, got)
	}
	// The PMU counters themselves must agree (read through the RTL model).
	for i := 0; i < pmu.NumCounters; i++ {
		if a, b := cold.PMUWrapper.Counter(i), warm.PMUWrapper.Counter(i); a != b {
			t.Errorf("PMU counter %d diverges: cold=%d warm=%d", i, a, b)
		}
	}
}

// cpuSystemEngine is cpuSystem with an explicit RTL engine.
func cpuSystemEngine(t testing.TB, engine rtl.Engine) (*soc.System, *experiments.AXIHost) {
	t.Helper()
	cfg := soc.DefaultConfig()
	cfg.Cores = 1
	cfg.Memory = "DDR4-1ch"
	cfg.WithPMU = true
	cfg.RTLEngine = engine
	s := soc.MustBuild(cfg)
	host := experiments.NewAXIHost(s.Queue)
	port.Bind(host.Port(), s.PMU.CPUPort(0))
	return s, host
}

// TestCheckpointCrossEngine checks that checkpoints are engine-portable: a
// run saved under one RTL engine restores under the other and finishes with
// the digest (final tick, event count, StateHash, full stats dump) of an
// uninterrupted run — in both directions. This is what lets a sweep warm a
// checkpoint prefix once and serve it to points running either engine.
func TestCheckpointCrossEngine(t *testing.T) {
	src := workload.SortBenchmark(workload.SortParams{N: 60, SleepUs: 20})
	const limit = 100 * sim.Millisecond
	setup := func(s *soc.System, host *experiments.AXIHost) {
		s.PMU.Start()
		host.Write(pmu.RegEnable, 0x3F)
		if err := s.LoadProgram(0, src); err != nil {
			t.Fatal(err)
		}
		s.Cores[0].OnExit = func(int64) { s.Queue.ExitSimLoop("program exit") }
		s.StartCores(0)
	}
	for _, dir := range []struct {
		name       string
		save, load rtl.Engine
	}{
		{"closure-to-bytecode", rtl.EngineClosure, rtl.EngineBytecode},
		{"bytecode-to-closure", rtl.EngineBytecode, rtl.EngineClosure},
	} {
		t.Run(dir.name, func(t *testing.T) {
			base := port.PacketIDMark() // see TestCheckpointRestoreEquivalenceNVDLA
			cold, coldHost := cpuSystemEngine(t, dir.save)
			setup(cold, coldHost)
			cold.Queue.RunUntil(limit)
			if exited, _ := cold.Cores[0].Exited(); !exited {
				t.Fatal("reference program did not finish")
			}
			coldDigest := runDigest(t, cold)

			port.SetPacketIDForTest(base)
			split, splitHost := cpuSystemEngine(t, dir.save)
			setup(split, splitHost)
			split.Queue.RunUntil(cold.Queue.Now() / 2)
			var snap bytes.Buffer
			if err := split.Save(&snap); err != nil {
				t.Fatal(err)
			}

			warm, _ := cpuSystemEngine(t, dir.load)
			warm.Cores[0].OnExit = func(int64) { warm.Queue.ExitSimLoop("program exit") }
			port.SetPacketIDForTest(base)
			if _, err := warm.Restore(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatalf("cross-engine restore: %v", err)
			}
			warm.Queue.RunUntil(limit)
			if exited, _ := warm.Cores[0].Exited(); !exited {
				t.Fatal("restored program did not finish")
			}
			if got := runDigest(t, warm); got != coldDigest {
				t.Errorf("cross-engine digest diverges:\n--- %s cold ---\n%s--- %s warm ---\n%s",
					dir.save, coldDigest, dir.load, got)
			}
			for i := 0; i < pmu.NumCounters; i++ {
				if a, b := cold.PMUWrapper.Counter(i), warm.PMUWrapper.Counter(i); a != b {
					t.Errorf("PMU counter %d diverges: %s=%d %s=%d", i, dir.save, a, dir.load, b)
				}
			}
		})
	}
}

// TestCheckpointFingerprintMismatch ensures a checkpoint refuses to restore
// into a behaviourally different system configuration.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	cfg := soc.DefaultConfig()
	cfg.Cores = 1
	cfg.Memory = "ideal"
	s := soc.MustBuild(cfg)
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.Memory = "DDR4-1ch"
	if _, err := soc.MustBuild(other).Restore(bytes.NewReader(snap.Bytes())); err == nil {
		t.Fatal("cross-configuration restore not refused")
	}

	// Same config restores fine (into a pristine build).
	if _, err := soc.MustBuild(cfg).Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("same-config restore failed: %v", err)
	}

	// A used queue must refuse to restore.
	used := soc.MustBuild(cfg)
	used.Queue.RunUntil(1000)
	used.Queue.ScheduleFunc("x", used.Queue.Now()+1, func() {})
	used.Queue.RunUntil(2000)
	if _, err := used.Restore(bytes.NewReader(snap.Bytes())); err == nil {
		t.Fatal("restore into a live run not refused")
	}
}
