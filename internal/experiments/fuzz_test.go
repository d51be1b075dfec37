package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzRunSpec feeds arbitrary bytes to the strict RunSpec decoder. Decoding
// must never panic, and every spec it accepts that also passes Validate must
// survive a round trip through its canonical encoding: the same spec up to
// the field the canonical encoding normalises by design (one core spelled
// 0) and the same fingerprint.
func FuzzRunSpec(f *testing.F) {
	f.Add(validSpec().CanonicalJSON())
	f.Add(programSpec().CanonicalJSON())
	f.Add([]byte(`{"workload":"googlenet","nvdlas":4,"memory":"HBM","inflight":240,"scale":1,"limit":1,"rtl_engine":"closure"}`))
	f.Add([]byte(`{"workload":"sanity3","shards":2}`))
	f.Add([]byte(`{"workload":"sanity3","workload":"googlenet"}`))
	f.Add([]byte(`{"limit":-1}`))
	f.Add([]byte(`{"nvdlas":1e3}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(strings.Repeat(`{"a":`, 1000)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec RunSpec
		if json.Unmarshal(data, &spec) != nil || spec.Validate() != nil {
			return
		}
		canon := spec.CanonicalJSON()
		var back RunSpec
		if err := json.Unmarshal(canon, &back); err != nil {
			t.Fatalf("canonical encoding %s of an accepted spec does not decode: %v", canon, err)
		}
		if want := spec.canonical(); back != want {
			t.Fatalf("round trip changed the spec:\n  got  %+v\n  want %+v", back, want)
		}
		if back.Fingerprint() != spec.Fingerprint() {
			t.Fatalf("round trip changed the fingerprint: %s vs %s", back.Fingerprint(), spec.Fingerprint())
		}
	})
}
