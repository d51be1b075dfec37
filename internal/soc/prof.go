package soc

import "gem5rtl/internal/sim"

// AttachSelfProfiler attaches the event-kernel self-profiler to the system's
// event queue (reading the host clock every "every" dispatches;
// <= 0 selects sim.DefaultProfileEvery) and wires per-phase attribution
// into the RTL models the system hosts: the PMU wrapper's model
// sub-attributes its comb settle, sequential update and memory write-port
// phases under the PMU RTLObject's component name. Component-level
// attribution needs no wiring — every event in the system is owner-tagged
// at construction; read the report with prof.FromQueue(System.Queue).
//
// Profiling is observational: an unprofiled run dispatches the same events
// at the same ticks and produces byte-identical stats, state hashes and
// VCD output. Attach before the run starts.
func (s *System) AttachSelfProfiler(every int) *sim.Profiler {
	p := s.Queue.AttachProfiler(every)
	if s.PMU != nil {
		name := s.PMU.Name()
		s.PMUWrapper.Model().AttachProfiler(p,
			s.Queue.Owner(name, "rtl-comb"),
			s.Queue.Owner(name, "rtl-seq"),
			s.Queue.Owner(name, "rtl-memw"))
	}
	return p
}
