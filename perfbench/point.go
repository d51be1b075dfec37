package main

import (
	"strconv"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/trace"
)

// pointLimit bounds every DSE point's simulated time (the repository's
// default DSE limit).
var pointLimit = experiments.DefaultDSEParams().Limit

// specConfig is the SoC configuration experiments.Run builds for a point.
func specConfig(spec experiments.RunSpec) soc.Config {
	cfg := soc.DefaultConfig()
	cfg.Cores = 1
	cfg.Memory = spec.Memory
	cfg.NVDLAs = spec.NVDLAs
	cfg.NVDLAMaxInflight = spec.Inflight
	return cfg
}

// buildPoint sets up one DSE point through the public soc and trace entry
// points, the same steps experiments.Run takes: build the system, then start
// each accelerator and play its own copy of the workload trace. With acct
// set, a traced run charges the trace bytes and build allocation to the
// set-up ledger.
func buildPoint(e *env, parent, point int, spec experiments.RunSpec, acct bool) (*soc.System, error) {
	s, err := buildSoC(e, parent, point, spec.String(), specConfig(spec), acct)
	if err != nil {
		return nil, err
	}
	for i := 0; i < spec.NVDLAs; i++ {
		s.NVDLAs[i].Start()
		var tr *trace.Trace
		err := e.tr.do(spanTraceGen, parent, point, spec.Workload, func() error {
			var err error
			tr, err = trace.Scaled(spec.Workload, uint64(i+1)<<32, spec.Scale)
			return err
		})
		if err != nil {
			return nil, err
		}
		if acct && e.traced() {
			e.led["trace.bytes"] += float64(traceBytes(tr))
		}
		id := e.tr.begin(spanPlayTrace, parent, point, "")
		s.PlayTrace(i, tr)
		e.tr.end(id)
	}
	return s, nil
}

// buildSoC calls soc.Build under a span. With acct set, a traced run
// charges the build's allocation to the set-up ledger.
func buildSoC(e *env, parent, point int, label string, cfg soc.Config, acct bool) (*soc.System, error) {
	acct = acct && e.traced()
	var a0 uint64
	if acct {
		a0 = totalAlloc()
	}
	var s *soc.System
	err := e.tr.do(spanSocBuild, parent, point, label, func() error {
		var err error
		s, err = soc.Build(cfg)
		return err
	})
	if acct {
		e.led["soc.build_alloc_mb"] += float64(totalAlloc()-a0) / (1 << 20)
	}
	return s, err
}

// traceBytes is the memory image a trace preloads.
func traceBytes(t *trace.Trace) int {
	n := 0
	for _, op := range t.Ops {
		if op.Kind == trace.OpLoadMem {
			n += len(op.Data)
		}
	}
	return n
}

func itoa(v uint64) string { return strconv.FormatUint(v, 10) }
