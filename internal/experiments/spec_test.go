package experiments

import (
	"encoding/json"
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

// TestStrictDecodeRejectsUnknownFields checks an unknown field fails loudly,
// naming the field, instead of silently running the zero value: a typo, or a
// field the spec no longer has ("shards").
func TestStrictDecodeRejectsUnknownFields(t *testing.T) {
	for _, c := range []struct {
		name, input, field string
	}{
		{"typo", `{"workload":"sanity3","inflght":16}`, "inflght"},
		{"removed", `{"workload":"sanity3","shards":2}`, "shards"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var spec RunSpec
			err := json.Unmarshal([]byte(c.input), &spec)
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("unknown field %q not rejected: err=%v", c.field, err)
			}
		})
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
	variants := []RunSpec{a, a, a, a, a, a}
	variants[0].Workload = "googlenet"
	variants[1].NVDLAs = 2
	variants[2].Memory = "HBM"
	variants[3].Inflight = 64
	variants[4].Scale = 8
	variants[5].Limit = 4 * sim.Second
	seen := map[string]bool{a.Fingerprint(): true}
	for i, v := range variants {
		fp := v.Fingerprint()
		if seen[fp] {
			t.Errorf("variant %d collides with an earlier fingerprint", i)
		}
		seen[fp] = true
	}
}

// TestRTLEngineExcludedFromFingerprint checks the engine knob is pure
// execution strategy: it decodes strictly, it validates, and it never
// reaches the canonical bytes or the fingerprint — two specs differing only
// in engine are one simulation point and share baselines and result-store
// entries.
func TestRTLEngineExcludedFromFingerprint(t *testing.T) {
	base := validSpec()
	closure, bytecode := base, base
	closure.RTLEngine = "closure"
	bytecode.RTLEngine = "bytecode"
	if base.Fingerprint() != closure.Fingerprint() || base.Fingerprint() != bytecode.Fingerprint() {
		t.Error("engine choice changed the fingerprint")
	}
	if string(closure.CanonicalJSON()) != string(base.CanonicalJSON()) {
		t.Errorf("engine leaked into canonical bytes: %s", closure.CanonicalJSON())
	}
	for _, s := range []RunSpec{closure, bytecode} {
		if err := s.Validate(); err != nil {
			t.Errorf("engine %q rejected: %v", s.RTLEngine, err)
		}
	}
	bad := base
	bad.RTLEngine = "jit"
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "jit") {
		t.Errorf("unknown engine not rejected by name: err=%v", err)
	}
	// The strict decoder accepts the field and carries it through.
	var back RunSpec
	if err := json.Unmarshal([]byte(`{"workload":"sanity3","nvdlas":1,"memory":"ideal","inflight":16,"scale":32,"limit":1,"rtl_engine":"closure"}`), &back); err != nil {
		t.Fatalf("strict decode rejected rtl_engine: %v", err)
	}
	if back.RTLEngine != "closure" {
		t.Errorf("rtl_engine not decoded: %+v", back)
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
