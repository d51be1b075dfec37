package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// manifest is the part of BENCHMARK.json the self-tests read.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// childArgsEnv, when set, makes the test binary run the command at the
// tiny size with these arguments (space-separated) instead of the tests.
const childArgsEnv = "PERFBENCH_TINY_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(childArgsEnv); args != "" {
		os.Exit(run(strings.Fields(args), os.Stdout, os.Stderr, embeddedGoldens(), "tiny"))
	}
	os.Exit(m.Run())
}

// runChild runs the command at the tiny size in a process of its own, as
// the benchmark runs every workload, from a scratch directory, and returns
// its exit code and decoded last line.
func runChild(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Dir = t.TempDir()
	cmd.Env = append(os.Environ(), childArgsEnv+"="+strings.Join(append([]string{"--seconds", "1"}, args...), " "))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
		code = exit.ExitCode()
	}
	return code, lastResult(t, stdout.String(), stderr.String()), stdout.String() + stderr.String()
}

// runInProcess runs the command at the tiny size in this process with the
// given goldens, from a scratch directory.
func runInProcess(t *testing.T, want map[string]string, args ...string) (int, result, string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"--seconds", "1"}, args...), &stdout, &stderr, want, "tiny")
	return code, lastResult(t, stdout.String(), stderr.String()), stdout.String() + stderr.String()
}

// lastResult decodes the result on the last line of stdout.
func lastResult(t *testing.T, stdout, stderr string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s\n%s", err, stdout, stderr)
	}
	return res
}

// TestSmokeEveryMetric runs every workload of the manifest at the tiny size,
// untraced and traced, each in a process of its own, and checks that each
// metric the manifest names is emitted with its unit and that every output
// check passed.
func TestSmokeEveryMetric(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, the command %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		for _, trace := range []string{"0", "1"} {
			start := time.Now()
			code, res, log := runChild(t, "--workload", w.Name, "--seed", "3", "--trace", trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%s: exit %d, result %+v\n%s", w.Name, trace, code, res, log)
			}
			want := m.EndToEnd
			if trace == "1" {
				want = m.PerLayer
			}
			for _, metric := range want {
				got, ok := res.Metrics[metric.Name]
				if !ok {
					t.Errorf("%s trace=%s: metric %s missing", w.Name, trace, metric.Name)
				} else if got.Unit != metric.Unit {
					t.Errorf("%s trace=%s: metric %s unit %q, manifest says %q", w.Name, trace, metric.Name, got.Unit, metric.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics emitted, manifest names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			if !strings.Contains(log, "seed=3") {
				t.Errorf("%s trace=%s: seed not echoed", w.Name, trace)
			}
			t.Logf("%s trace=%s: %d checks in %v", w.Name, trace, res.Attempted, time.Since(start).Round(time.Millisecond))
		}
	}
}

// TestTamperedGoldenFails checks that a wrong golden fails the run, exits
// non-zero and is counted against the attempts.
func TestTamperedGoldenFails(t *testing.T) {
	want := embeddedGoldens()
	const key = "tiny/pmu-sort/gem5/ticks"
	if _, ok := want[key]; !ok {
		t.Fatalf("no golden %s", key)
	}
	want[key] = "1"
	code, res, log := runInProcess(t, want, "--workload", "pmu-sort", "--trace", "0")
	if code == 0 || res.Correct {
		t.Fatalf("tampered golden passed: exit %d, result %+v", code, res)
	}
	if res.Failed < 1 || res.Failed >= res.Attempted {
		t.Fatalf("failures not counted against attempts: %+v", res)
	}
	if !strings.Contains(log, "wrong output "+key) {
		t.Fatalf("failure does not name the golden:\n%s", log)
	}
}

// TestSelfTimeUnion checks that a span's self time subtracts the union of
// its children, which may overlap when they run on different workers.
func TestSelfTimeUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 70},
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120},
	}}
	self := tr.selfTimes()
	if self["parent"] != 100-60-10 {
		t.Errorf("parent self time %v, want 30", self["parent"])
	}
	if self["child"] != 40+40+30 {
		t.Errorf("child self time %v, want 110", self["child"])
	}
}
