package experiments

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"gem5rtl/internal/sim"
)

func validSpec() RunSpec {
	return DSEParams{Scale: 32, Limit: 8 * sim.Second}.Spec("sanity3", 1, "DDR4-1ch", 16)
}

// TestCanonicalJSONRoundTrip checks the canonical encoding is stable, compact
// and round-trips through the strict decoder.
func TestCanonicalJSONRoundTrip(t *testing.T) {
	spec := validSpec()
	b := spec.CanonicalJSON()
	want := `{"workload":"sanity3","nvdlas":1,"memory":"DDR4-1ch","inflight":16,"scale":32,"limit":8000000000000}`
	if string(b) != want {
		t.Errorf("canonical encoding:\n  got  %s\n  want %s", b, want)
	}
	var back RunSpec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != spec {
		t.Errorf("round trip changed the spec: %+v vs %+v", back, spec)
	}
}

// programSpec is a small valid guest-program spec: the CPU+PMU sort run.
func programSpec() RunSpec {
	return RunSpec{Memory: "DDR4-1ch", Limit: 200 * sim.Millisecond, Cores: 1,
		Program: "sort", N: 40, SleepUs: 100, PMU: true}
}

// TestStrictDecodeRejectsUnknownFields checks decoding plus validation of a
// submitted spec: an unknown field fails loudly, naming the field, instead of
// silently running the zero value (a typo, or a field the spec no longer
// has: "shards"), and so does a known field with a bad value.
func TestStrictDecodeRejectsUnknownFields(t *testing.T) {
	for _, c := range []struct {
		name, input, field string // field "" = the spec is valid
	}{
		{"typo", `{"workload":"sanity3","inflght":16}`, "inflght"},
		{"removed", `{"workload":"sanity3","shards":2}`, "shards"},
		{"removed-engine", `{"workload":"sanity3","nvdlas":1,"memory":"ideal","inflight":16,"scale":32,"limit":1,"rtl_engine":"closure"}`, "rtl_engine"},
		{"program", `{"memory":"DDR4-1ch","limit":1,"cores":1,"program":"sort","n":40,"sleep_us":100,"pmu":true}`, ""},
		{"program-typo", `{"memory":"DDR4-1ch","limit":1,"programm":"sort","n":40}`, "programm"},
		{"program-value", `{"memory":"DDR4-1ch","limit":1,"program":"sortt","n":40}`, "program"},
		{"no-work", `{"memory":"DDR4-1ch","limit":1}`, "nvdlas"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var spec RunSpec
			err := json.Unmarshal([]byte(c.input), &spec)
			if err == nil {
				err = spec.Validate()
			}
			if c.field == "" {
				if err != nil {
					t.Errorf("valid spec rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("bad field %q not rejected by name: err=%v", c.field, err)
			}
		})
	}
}

// TestSpecContractPinned pins the canonical bytes, fingerprint and string
// of three Figure 7 grid points to the values they had before RunSpec grew
// its program fields: the sweep service's store keys and the benchmark's
// golden file depend on them, so no NVDLA spec may change its encoding.
func TestSpecContractPinned(t *testing.T) {
	specs := DSESpecs("sanity3", DefaultDSEParams())
	for _, c := range []struct {
		i              int
		canon, fp, str string
	}{
		{0, `{"workload":"sanity3","nvdlas":1,"memory":"ideal","inflight":1,"scale":8,"limit":4000000000000}`,
			"af3af0e7456dffcf36e96786e6820a74658b0cbc54f1d7789f3635c5cd3f9f46",
			"sanity3 n=1 ideal inflight=1 scale=8"},
		{45, `{"workload":"sanity3","nvdlas":1,"memory":"DDR4-4ch","inflight":240,"scale":8,"limit":4000000000000}`,
			"7593c18274b7191d3b3a8bcc877a2f560af1326c11803206580c289f6940ab9d",
			"sanity3 n=1 DDR4-4ch inflight=240 scale=8"},
		{143, `{"workload":"sanity3","nvdlas":4,"memory":"HBM","inflight":240,"scale":8,"limit":4000000000000}`,
			"375e219f7811cf66d5df629a0434697d8aedaf1c4a12ee9c184f3080d51f0381",
			"sanity3 n=4 HBM inflight=240 scale=8"},
	} {
		s := specs[c.i]
		if got := string(s.CanonicalJSON()); got != c.canon {
			t.Errorf("point %d canonical JSON:\n  got  %s\n  want %s", c.i, got, c.canon)
		}
		if got := s.Fingerprint(); got != c.fp {
			t.Errorf("point %d fingerprint %s, want %s", c.i, got, c.fp)
		}
		if got := s.String(); got != c.str {
			t.Errorf("point %d String %q, want %q", c.i, got, c.str)
		}
	}
}

// TestFingerprint checks equal specs share a fingerprint and any field change
// produces a different one.
func TestFingerprint(t *testing.T) {
	a, b := validSpec(), validSpec()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("equal specs have different fingerprints")
	}
	if len(a.Fingerprint()) != 64 {
		t.Errorf("fingerprint %q is not hex SHA-256", a.Fingerprint())
	}
	p := programSpec()
	variants := []RunSpec{a, a, a, a, a, a, p, p, p, p, p, p, p, a}
	variants[0].Workload = "googlenet"
	variants[1].NVDLAs = 2
	variants[2].Memory = "HBM"
	variants[3].Inflight = 64
	variants[4].Scale = 8
	variants[5].Limit = 4 * sim.Second
	variants[7].Cores = 2
	variants[8].Program = "loop"
	variants[9].N = 41
	variants[10].SleepUs = 99
	variants[11].PMU = false
	variants[12].PMUInterval = 10000
	variants[13].Scratchpad = true
	seen := map[string]bool{a.Fingerprint(): true}
	for i, v := range variants {
		fp := v.Fingerprint()
		if seen[fp] {
			t.Errorf("variant %d collides with an earlier fingerprint", i)
		}
		seen[fp] = true
	}
	// One core is one machine however it is spelled.
	one, zero := programSpec(), programSpec()
	zero.Cores = 0
	if one.Fingerprint() != zero.Fingerprint() {
		t.Error("cores 1 and cores 0 (one core) have different fingerprints")
	}
}

// TestValidate checks every field's range and that errors name the offending
// field with its valid choices.
func TestValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*RunSpec)
		want   string
	}{
		{"workload", func(s *RunSpec) { s.Workload = "resnet" }, `workload "resnet"`},
		{"nvdlas-low", func(s *RunSpec) { s.NVDLAs = 0 }, "nvdlas 0"},
		{"nvdlas-high", func(s *RunSpec) { s.NVDLAs = 65 }, "nvdlas 65"},
		{"memory", func(s *RunSpec) { s.Memory = "DDR3" }, `memory "DDR3"`},
		{"inflight", func(s *RunSpec) { s.Inflight = 0 }, "inflight 0"},
		{"scale", func(s *RunSpec) { s.Scale = 0 }, "scale 0"},
		{"limit", func(s *RunSpec) { s.Limit = 0 }, "limit 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := validSpec()
			tc.mutate(&spec)
			err := spec.Validate()
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the offending field as %q", err, tc.want)
			}
		})
	}
	if err := programSpec().Validate(); err != nil {
		t.Fatalf("valid program spec rejected: %v", err)
	}
	// Every program field fails with a *SpecError naming it.
	for _, tc := range []struct {
		field  string
		mutate func(*RunSpec)
	}{
		{"cores", func(s *RunSpec) { s.Cores = 65 }},
		{"program", func(s *RunSpec) { s.Program = "sortt" }},
		{"n", func(s *RunSpec) { s.N = 0 }},
		{"n", func(s *RunSpec) { s.N = 1_000_001 }},
		{"pmu_interval", func(s *RunSpec) { s.PMUInterval = 1 << 32 }},
		{"sleep_us", func(s *RunSpec) { s.Program, s.SleepUs = "loop", 5 }},
		{"pmu_interval", func(s *RunSpec) { s.PMU, s.PMUInterval = false, 10000 }},
		{"scratchpad", func(s *RunSpec) { s.Scratchpad = true }},
		{"workload", func(s *RunSpec) { s.Workload = "sanity3" }},
		{"scale", func(s *RunSpec) { s.Scale = 8 }},
		{"inflight", func(s *RunSpec) { s.Inflight = -1 }},
		{"nvdlas", func(s *RunSpec) { s.Program, s.N, s.SleepUs = "", 0, 0 }},
	} {
		t.Run("program/"+tc.field, func(t *testing.T) {
			spec := programSpec()
			tc.mutate(&spec)
			var se *SpecError
			if err := spec.Validate(); !errors.As(err, &se) || se.Field != tc.field {
				t.Errorf("want a *SpecError for field %q, got %v", tc.field, err)
			}
		})
	}
	for _, memName := range Memories() {
		spec := validSpec()
		spec.Memory = memName
		if err := spec.Validate(); err != nil {
			t.Errorf("listed memory %q rejected: %v", memName, err)
		}
	}
}

// TestParseSpecs checks strict batch decoding: valid arrays parse, unknown
// fields and invalid specs fail with the offending index.
func TestParseSpecs(t *testing.T) {
	good := `[{"workload":"sanity3","nvdlas":1,"memory":"HBM","inflight":4,"scale":32,"limit":8000000000000}]`
	specs, err := ParseSpecs([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Memory != "HBM" {
		t.Errorf("parsed %+v", specs)
	}

	if _, err := ParseSpecs([]byte(`[{"workload":"sanity3","typo":1}]`)); err == nil {
		t.Error("unknown field in batch not rejected")
	}
	bad := `[` + string(validSpec().CanonicalJSON()) + `,{"workload":"sanity3","nvdlas":0,"memory":"HBM","inflight":4,"scale":32,"limit":1}]`
	_, err = ParseSpecs([]byte(bad))
	if err == nil || !strings.Contains(err.Error(), "spec[1]") {
		t.Errorf("invalid spec index not reported: err=%v", err)
	}
}

// TestBaseline checks the ideal-memory normalisation helper.
func TestBaseline(t *testing.T) {
	spec := validSpec()
	b := spec.Baseline()
	if !b.IsIdeal() || b.Workload != spec.Workload || b.Inflight != spec.Inflight {
		t.Errorf("baseline %+v does not preserve the point", b)
	}
	if spec.IsIdeal() {
		t.Error("DDR4-1ch spec claims to be ideal")
	}
	if !b.Baseline().IsIdeal() {
		t.Error("baseline of a baseline must stay ideal")
	}
}
