package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"gem5rtl/internal/mem"
	"gem5rtl/internal/sim"
)

// RunSpec fully identifies one independent simulation point: which
// workload runs on how many accelerators, against which memory technology,
// under which in-flight cap, at which trace scale and simulated time limit —
// and, for a guest-program run, how many cores, which program at which size,
// and whether the PMU is attached. Specs are comparable, so they double as
// cache keys for the ideal-memory baselines that normalise the figures, and
// they have a canonical JSON encoding (strict on decode) shared by the sweep
// service, the CLI tools and the result store.
type RunSpec struct {
	Workload string `json:"workload,omitempty"`
	NVDLAs   int    `json:"nvdlas,omitempty"`
	Memory   string `json:"memory"` // "ideal" is the normalisation baseline
	Inflight int    `json:"inflight,omitempty"`
	// Scale divides the trace footprints (see DSEParams.Scale).
	Scale int `json:"scale,omitempty"`
	// Limit bounds one run's simulated time, in ticks.
	Limit sim.Tick `json:"limit"`
	// Cores is the number of CPU cores; 0 means one.
	Cores int `json:"cores,omitempty"`
	// Program is the guest program core 0 runs: "sort", "loop", "stream",
	// or empty for none. With accelerators the program is background load
	// and the run ends when the last accelerator finishes; without, the run
	// ends when the program exits.
	Program string `json:"program,omitempty"`
	// N sizes the program (sort: selection/bubble array length; loop:
	// iterations; stream: words).
	N int `json:"n,omitempty"`
	// SleepUs is the sort program's inter-phase sleep in microseconds.
	SleepUs int `json:"sleep_us,omitempty"`
	// PMU attaches the PMU RTL model to core 0 and enables its counters.
	PMU bool `json:"pmu,omitempty"`
	// PMUInterval is the PMU threshold-interrupt period in PMU cycles; 0
	// enables the counters without setting a threshold.
	PMUInterval int `json:"pmu_interval,omitempty"`
	// Scratchpad hooks each accelerator's SRAMIF to a private on-chip
	// scratchpad (paper §4.2 extension).
	Scratchpad bool `json:"scratchpad,omitempty"`
}

// String renders the spec for progress lines and error messages.
func (s RunSpec) String() string {
	str := s.Memory
	if s.NVDLAs > 0 || s.Program == "" {
		str = fmt.Sprintf("%s n=%d %s inflight=%d scale=%d", s.Workload, s.NVDLAs, s.Memory, s.Inflight, s.Scale)
	}
	if s.Program != "" {
		str += fmt.Sprintf(" cores=%d %s n=%d sleep=%dus pmu=%t interval=%d",
			max(s.Cores, 1), s.Program, s.N, s.SleepUs, s.PMU, s.PMUInterval)
	}
	return str
}

// Baseline returns the ideal-memory spec this spec is normalised against
// (itself for an ideal spec). The sweep service uses it to schedule the
// baseline run a submitted point's Perf depends on.
func (s RunSpec) Baseline() RunSpec {
	s.Memory = "ideal"
	return s
}

// IsIdeal reports whether the spec is a normalisation baseline (ideal
// memory).
func (s RunSpec) IsIdeal() bool { return s.Memory == "" || s.Memory == "ideal" }

// Workloads lists the valid RunSpec workload names.
func Workloads() []string { return []string{"sanity3", "googlenet"} }

// Programs lists the valid RunSpec guest program names.
func Programs() []string { return []string{"sort", "loop", "stream"} }

// Memories lists the valid RunSpec memory names: "ideal" plus the DRAM
// technologies of the evaluation.
func Memories() []string {
	return append([]string{"ideal"}, mem.TechNames()...)
}

// SpecError is a RunSpec validation failure. Field is the offending field's
// JSON name, Value its rejected value and Want the accepted range, so a bad
// spec fails with the same actionable message in every CLI and in the sweep
// service's submit endpoint.
type SpecError struct {
	Field string
	Value any
	Want  string
}

// Error implements error.
func (e *SpecError) Error() string {
	v := fmt.Sprint(e.Value)
	if s, ok := e.Value.(string); ok {
		v = fmt.Sprintf("%q", s)
	}
	return fmt.Sprintf("experiments: invalid spec: %s %s (want %s)", e.Field, v, e.Want)
}

// oneOf reports whether v is in list.
func oneOf(v string, list []string) bool {
	for _, x := range list {
		if v == x {
			return true
		}
	}
	return false
}

// Validate checks every field against the simulator's accepted ranges and
// returns a *SpecError naming the offending field, its value and the valid
// choices. It is shared by the CLI flag parsers and the sweep service's
// submit endpoint, so a bad spec fails identically everywhere.
func (s RunSpec) Validate() error {
	bad := func(field string, v any, want string) error {
		return &SpecError{Field: field, Value: v, Want: want}
	}
	if s.NVDLAs != 0 || s.Program == "" {
		if s.NVDLAs < 1 || s.NVDLAs > 64 {
			return bad("nvdlas", s.NVDLAs, "1..64 accelerator instances, or 0 with a program")
		}
		if !oneOf(s.Workload, Workloads()) {
			return bad("workload", s.Workload, "one of "+strings.Join(Workloads(), ", "))
		}
	}
	if !oneOf(s.Memory, Memories()) {
		return bad("memory", s.Memory, "one of "+strings.Join(Memories(), ", "))
	}
	if s.Inflight < 0 || (s.NVDLAs > 0 && s.Inflight < 1) {
		return bad("inflight", s.Inflight, ">= 1 in-flight memory requests")
	}
	if s.NVDLAs > 0 {
		if s.Scale < 1 {
			return bad("scale", s.Scale, ">= 1; the trace footprint divisor")
		}
	} else {
		// A program-only run has no accelerators, so their trace fields
		// must be unset. Inflight may stay set: the SoC configuration, and
		// so the checkpoint fingerprint, carries the cap either way.
		switch {
		case s.Workload != "":
			return bad("workload", s.Workload, "none without accelerators")
		case s.Scale != 0:
			return bad("scale", s.Scale, "0 without accelerators")
		case s.Scratchpad:
			return bad("scratchpad", s.Scratchpad, "false without accelerators")
		}
	}
	if s.Limit == 0 {
		return bad("limit", 0, fmt.Sprintf("a simulated-time bound in ticks, e.g. %d for 8 s", 8*sim.Second))
	}
	if s.Cores < 0 || s.Cores > 64 {
		return bad("cores", s.Cores, "1..64 CPU cores, or 0 for one")
	}
	if s.Program != "" && !oneOf(s.Program, Programs()) {
		return bad("program", s.Program, "one of "+strings.Join(Programs(), ", ")+", or none")
	}
	if s.Program != "" && (s.N < 1 || s.N > 1_000_000) {
		return bad("n", s.N, "1..1000000; the program size")
	}
	if s.Program == "" && s.N != 0 {
		return bad("n", s.N, "0 without a program")
	}
	if s.SleepUs < 0 || (s.SleepUs > 0 && s.Program != "sort") {
		return bad("sleep_us", s.SleepUs, ">= 0 microseconds, and 0 unless the program is sort")
	}
	if s.PMUInterval < 0 || int64(s.PMUInterval) > math.MaxUint32 || (s.PMUInterval > 0 && !s.PMU) {
		return bad("pmu_interval", s.PMUInterval, "0..2^32-1 PMU cycles (the 32-bit threshold register), and 0 without pmu")
	}
	return nil
}

// runSpecJSON mirrors RunSpec for strict decoding without recursing into
// RunSpec.UnmarshalJSON.
type runSpecJSON struct {
	Workload    string   `json:"workload,omitempty"`
	NVDLAs      int      `json:"nvdlas,omitempty"`
	Memory      string   `json:"memory"`
	Inflight    int      `json:"inflight,omitempty"`
	Scale       int      `json:"scale,omitempty"`
	Limit       sim.Tick `json:"limit"`
	Cores       int      `json:"cores,omitempty"`
	Program     string   `json:"program,omitempty"`
	N           int      `json:"n,omitempty"`
	SleepUs     int      `json:"sleep_us,omitempty"`
	PMU         bool     `json:"pmu,omitempty"`
	PMUInterval int      `json:"pmu_interval,omitempty"`
	Scratchpad  bool     `json:"scratchpad,omitempty"`
}

// UnmarshalJSON decodes a spec strictly: an unknown field is an error, so a
// typo in a submitted batch ("inflght") fails loudly instead of silently
// running the zero value.
func (s *RunSpec) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var raw runSpecJSON
	if err := dec.Decode(&raw); err != nil {
		return fmt.Errorf("experiments: decoding RunSpec: %w", err)
	}
	*s = RunSpec(raw)
	return nil
}

// canonical returns the spec with one core spelled 0, as it is spelled
// when the field is left out. Specs that differ only in that spelling share
// a canonical encoding, a fingerprint and a result-store entry.
func (s RunSpec) canonical() RunSpec {
	if s.Cores == 1 {
		s.Cores = 0
	}
	return s
}

// CanonicalJSON renders the spec in its canonical form: compact, fields in
// declaration order. Two equal specs always produce identical bytes, so the
// encoding is usable as a deduplication key.
func (s RunSpec) CanonicalJSON() []byte {
	b, err := json.Marshal(runSpecJSON(s.canonical()))
	if err != nil {
		// Marshalling a struct of strings and integers cannot fail.
		panic("experiments: RunSpec canonical encoding: " + err.Error())
	}
	return b
}

// Fingerprint returns the hex SHA-256 of the canonical JSON encoding — the
// sweep service's result-store key. Identical submitted points share a
// fingerprint, simulate once, and cache-hit forever.
func (s RunSpec) Fingerprint() string {
	sum := sha256.Sum256(s.CanonicalJSON())
	return hex.EncodeToString(sum[:])
}

// ParseSpecs decodes a JSON array of RunSpecs strictly and validates each
// one; the error names the offending array index.
func ParseSpecs(data []byte) ([]RunSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var specs []RunSpec
	if err := dec.Decode(&specs); err != nil {
		return nil, fmt.Errorf("experiments: decoding spec list: %w", err)
	}
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("spec[%d]: %w", i, err)
		}
	}
	return specs, nil
}

// Spec converts a DSEParams-era positional call into a RunSpec.
func (p DSEParams) Spec(workload string, nDLA int, memory string, inflight int) RunSpec {
	return RunSpec{Workload: workload, NVDLAs: nDLA, Memory: memory,
		Inflight: inflight, Scale: p.Scale, Limit: p.Limit}
}
