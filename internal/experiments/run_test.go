package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gem5rtl/internal/guard"
	"gem5rtl/internal/obs"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/stats"
)

// runGoldenEntry is one pinned point of testdata/run_golden.json, captured
// from the pre-refactor RunPoint/RunPointWarm/RunPointGuarded entry points
// before they were deleted. The three tick columns were equal then; the
// option-based Run must reproduce all three.
type runGoldenEntry struct {
	Spec         string   `json:"spec"`
	ColdTicks    sim.Tick `json:"cold_ticks"`
	WarmTicks    sim.Tick `json:"warm_ticks"`
	GuardedTicks sim.Tick `json:"guarded_ticks"`
}

// parseSpecString inverts RunSpec.String() for the golden file's keys.
func parseSpecString(t *testing.T, s string) RunSpec {
	t.Helper()
	var spec RunSpec
	if _, err := fmt.Sscanf(s, "%s n=%d %s inflight=%d scale=%d",
		&spec.Workload, &spec.NVDLAs, &spec.Memory, &spec.Inflight, &spec.Scale); err != nil {
		t.Fatalf("unparseable golden spec %q: %v", s, err)
	}
	spec.Limit = 8 * sim.Second
	return spec
}

// TestRunMatchesLegacyGolden pins the unified Run entry point against results
// captured from the deleted RunPoint, RunPointWarm and RunPointGuarded
// wrappers: the bare run, the warm-start option (both the populating pass and
// the restoring pass) and the watchdog option must each reproduce the legacy
// tick counts bit-identically.
func TestRunMatchesLegacyGolden(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("testdata", "run_golden.json"))
	if err != nil {
		t.Fatalf("missing legacy golden file: %v", err)
	}
	var want []runGoldenEntry
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}

	base := port.PacketIDMark()
	defer port.SetPacketIDForTest(base)
	ctx := context.Background()
	const warmup = 1 * sim.Microsecond

	for _, entry := range want {
		spec := parseSpecString(t, entry.Spec)

		port.SetPacketIDForTest(0)
		cold, err := Run(ctx, spec)
		if err != nil {
			t.Fatalf("%v: cold: %v", spec, err)
		}
		if cold != entry.ColdTicks {
			t.Errorf("%v: cold ticks %d, legacy RunPoint gave %d", spec, cold, entry.ColdTicks)
		}

		cache := NewCheckpointCache("")
		port.SetPacketIDForTest(0)
		populate, err := Run(ctx, spec, WithWarmStart(warmup, cache))
		if err != nil {
			t.Fatalf("%v: warm populate: %v", spec, err)
		}
		port.SetPacketIDForTest(0)
		restore, err := Run(ctx, spec, WithWarmStart(warmup, cache))
		if err != nil {
			t.Fatalf("%v: warm restore: %v", spec, err)
		}
		if populate != entry.WarmTicks || restore != entry.WarmTicks {
			t.Errorf("%v: warm ticks populate=%d restore=%d, legacy RunPointWarm gave %d",
				spec, populate, restore, entry.WarmTicks)
		}

		port.SetPacketIDForTest(0)
		guarded, err := Run(ctx, spec, WithWatchdog(guard.Config{}))
		if err != nil {
			t.Fatalf("%v: guarded: %v", spec, err)
		}
		if guarded != entry.GuardedTicks {
			t.Errorf("%v: guarded ticks %d, legacy RunPointGuarded gave %d",
				spec, guarded, entry.GuardedTicks)
		}
	}
}

// TestRunOptionComposition exercises the full warm × guard × observability
// matrix on one point: every option subset must produce the same tick count
// as the bare run, warm-start and observability must also preserve the bare
// run's state hash, and every combination must hash identically across its
// own passes (the warm restore-equivalence witness). Guarded combinations are
// excluded from the bare-hash comparison only because the watchdog's check
// event consumes serialised queue sequence/dispatch counters (see
// WithWatchdog); the simulated machine — and hence the tick count — is
// unchanged.
func TestRunOptionComposition(t *testing.T) {
	spec := DSEParams{Scale: 64, Limit: 8 * sim.Second}.Spec("sanity3", 1, "DDR4-1ch", 16)
	ctx := context.Background()
	const warmup = 1 * sim.Microsecond

	base := port.PacketIDMark()
	defer port.SetPacketIDForTest(base)

	port.SetPacketIDForTest(0)
	var refHash uint64
	refTicks, err := Run(ctx, spec, WithStateHash(&refHash))
	if err != nil {
		t.Fatal(err)
	}
	if refHash == 0 {
		t.Fatal("reference state hash not populated")
	}

	for _, warm := range []bool{false, true} {
		for _, guarded := range []bool{false, true} {
			for _, observed := range []bool{false, true} {
				name := fmt.Sprintf("warm=%v/guard=%v/obs=%v", warm, guarded, observed)
				t.Run(name, func(t *testing.T) {
					var cache *CheckpointCache
					if warm {
						cache = NewCheckpointCache("")
					}
					var passHash [2]uint64
					// Two passes so the warm configurations cover both the
					// populating (miss) and restoring (hit) paths.
					for pass := 0; pass < 2; pass++ {
						var opts []Option
						if warm {
							opts = append(opts, WithWarmStart(warmup, cache))
						}
						if guarded {
							opts = append(opts, WithWatchdog(guard.Config{}))
						}
						var samples []stats.Sample
						if observed {
							opts = append(opts, WithTracer(obs.Config{}),
								WithStats(func(s []stats.Sample) { samples = s }))
						}
						var hash uint64
						opts = append(opts, WithStateHash(&hash))

						port.SetPacketIDForTest(0)
						ticks, err := Run(ctx, spec, opts...)
						if err != nil {
							t.Fatalf("pass %d: %v", pass, err)
						}
						if ticks != refTicks {
							t.Errorf("pass %d: ticks %d, bare run gave %d", pass, ticks, refTicks)
						}
						passHash[pass] = hash
						if !guarded && hash != refHash {
							t.Errorf("pass %d: state hash %016x, bare run gave %016x", pass, hash, refHash)
						}
						if observed && len(samples) == 0 {
							t.Errorf("pass %d: WithStats sink received no samples", pass)
						}
					}
					if passHash[0] != passHash[1] {
						t.Errorf("state hash diverged between passes: %016x vs %016x",
							passHash[0], passHash[1])
					}
					if warm {
						cs := cache.Stats()
						if cs.Misses != 1 || cs.Hits != 1 {
							t.Errorf("cache stats %+v, want exactly one miss then one hit", cs)
						}
					}
				})
			}
		}
	}
}

// TestRunCancelledContext checks that a pre-cancelled context aborts before
// any simulation work.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := DSEParams{Scale: 64, Limit: 8 * sim.Second}.Spec("sanity3", 1, "DDR4-1ch", 16)
	if _, err := Run(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestCacheStatsStale checks the stale counter: an unrestorable snapshot is
// dropped, counted, and the point falls back to a cold populate.
func TestCacheStatsStale(t *testing.T) {
	spec := DSEParams{Scale: 64, Limit: 8 * sim.Second}.Spec("sanity3", 1, "DDR4-1ch", 16)
	const warmup = 1 * sim.Microsecond
	cache := NewCheckpointCache("")
	cache.store(spec, warmup, []byte("garbage"))
	if _, err := Run(context.Background(), spec, WithWarmStart(warmup, cache)); err != nil {
		t.Fatal(err)
	}
	cs := cache.Stats()
	if cs.Stale != 1 || cs.Hits != 0 {
		t.Errorf("cache stats %+v, want one stale drop and no hits", cs)
	}
}

// TestRunProgramSpec runs a guest-program spec (CPU and PMU, no
// accelerators) through every way Run can split a run — cold, WithSnapshot
// then WithRestore, and a warm-start miss then hit — and checks that each
// ends at the same tick with the same full-system state hash: program runs
// get the restore equivalence NVDLA points have. A sweep normalises the
// point against its ideal-memory twin like any other.
func TestRunProgramSpec(t *testing.T) {
	spec := RunSpec{Memory: "DDR4-1ch", Limit: 50 * sim.Millisecond,
		Program: "sort", N: 20, SleepUs: 5, PMU: true, PMUInterval: 5000}
	ctx := context.Background()
	const at = 20 * sim.Microsecond
	base := port.PacketIDMark()
	defer port.SetPacketIDForTest(base)
	run := func(opts ...Option) (sim.Tick, uint64) {
		t.Helper()
		var hash uint64
		port.SetPacketIDForTest(0)
		ticks, err := Run(ctx, spec, append(opts, WithStateHash(&hash))...)
		if err != nil {
			t.Fatal(err)
		}
		return ticks, hash
	}
	coldTicks, coldHash := run()
	if coldTicks <= at {
		t.Fatalf("guest exited at %d, before the %d split point", coldTicks, at)
	}

	var snap []byte
	port.SetPacketIDForTest(0)
	reached, err := Run(ctx, spec, WithSnapshot(at, func(b []byte) error { snap = b; return nil }))
	if err != nil || reached != at || len(snap) == 0 {
		t.Fatalf("snapshot: reached %d (want %d), %d bytes, err %v", reached, at, len(snap), err)
	}
	cache := NewCheckpointCache("")
	for _, c := range []struct {
		name string
		opt  Option
	}{
		{"restore", WithRestore(snap)},
		{"warm-miss", WithWarmStart(at, cache)},
		{"warm-hit", WithWarmStart(at, cache)},
	} {
		if ticks, hash := run(c.opt); ticks != coldTicks || hash != coldHash {
			t.Errorf("%s: tick %d hash %016x, cold run gave %d %016x", c.name, ticks, hash, coldTicks, coldHash)
		}
	}
	if cs := cache.Stats(); cs.Misses != 1 || cs.Hits != 1 {
		t.Errorf("cache stats %+v, want one miss then one hit", cs)
	}

	results, err := Runner{Workers: 1}.Sweep(ctx, []RunSpec{spec.Baseline(), spec})
	if err != nil {
		t.Fatal(err)
	}
	if r := results[1]; r.Err != nil || r.Ticks != coldTicks || r.Perf <= 0 || r.Perf > 1 {
		t.Errorf("swept program point: %+v", r)
	}

	short := spec
	short.Limit = at
	if _, err := Run(ctx, short); err == nil || !strings.Contains(err.Error(), "still running") {
		t.Errorf("guest still running at the limit: err = %v", err)
	}
}

// TestIntervalStatsAcrossSnapshot checks that a run split by a warm-start
// snapshot writes the same interval-stats series as an unsplit one: the
// dump event is detached around the save and resumes at the next interval
// boundary.
func TestIntervalStatsAcrossSnapshot(t *testing.T) {
	spec := DSEParams{Scale: 64, Limit: 8 * sim.Second}.Spec("sanity3", 1, "DDR4-1ch", 16)
	ctx := context.Background()
	var cold, warm bytes.Buffer
	if _, err := Run(ctx, spec, WithIntervalStats(&cold, 500*sim.Nanosecond, "jsonl")); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ctx, spec, WithIntervalStats(&warm, 500*sim.Nanosecond, "jsonl"),
		WithWarmStart(1700*sim.Nanosecond, NewCheckpointCache(""))); err != nil {
		t.Fatal(err)
	}
	if cold.Len() == 0 || !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Errorf("interval series differ across the snapshot:\n--- cold\n%s--- warm\n%s", cold.Bytes(), warm.Bytes())
	}
}
