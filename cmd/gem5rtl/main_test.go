package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBinary compiles the gem5rtl command into dir and returns its path.
func buildBinary(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "gem5rtl")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestInterruptedRunLeavesValidOutputFiles is the regression test for the
// truncated-trace bug: a run aborted mid-flight (here by a blown host
// -timeout; a watchdog trip takes the same fatal path) must still flush and
// close its -trace-out and -stats-out writers, leaving a parseable Chrome
// trace JSON and well-formed interval-stats JSONL rather than a truncated
// array.
func TestInterruptedRunLeavesValidOutputFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := buildBinary(t, dir)
	tracePath := filepath.Join(dir, "trace.json")
	statsPath := filepath.Join(dir, "stats.jsonl")

	// A full-scale googlenet run takes far longer than the 150ms budget, so
	// the run is reliably cut off mid-flight.
	cmd := exec.Command(bin,
		"-nvdla", "1", "-dla-workload", "googlenet", "-dla-scale", "1",
		"-cores", "1", "-program", "none", "-limit-ms", "60000",
		"-timeout", "150ms",
		"-trace-out", tracePath,
		"-stats-interval", "100us", "-stats-out", statsPath)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("expected the run to be interrupted by -timeout, but it exited cleanly:\n%s", out)
	}
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("running gem5rtl: %v\n%s", err, out)
	}

	traceBytes, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("interrupted run left no trace file: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceBytes, &doc); err != nil {
		t.Fatalf("interrupted run's -trace-out is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatalf("interrupted run's trace has no events; output:\n%s", out)
	}

	statsBytes, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatalf("interrupted run left no interval-stats file: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(statsBytes)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatalf("interrupted run's interval-stats file is empty")
	}
	for i, line := range lines {
		var row map[string]any
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("interval-stats line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
	}
}

// TestStatsMatchBaselineGolden runs the CPU+PMU sort command the CI
// observability job runs and diffs its statistics against the committed
// golden, so a change of simulated behaviour fails the ordinary test suite
// and not only CI.
func TestStatsMatchBaselineGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "stats_baseline.golden"))
	if err != nil {
		t.Fatal(err)
	}
	bin := buildBinary(t, t.TempDir())
	cmd := exec.Command(bin, "-cores", "1", "-mem", "DDR4-1ch", "-pmu",
		"-program", "sort", "-n", "40", "-limit-ms", "200")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("gem5rtl: %v\n%s", err, stderr.Bytes())
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stats differ from testdata/stats_baseline.golden:\n--- got\n%s--- want\n%s", got, want)
	}
}
