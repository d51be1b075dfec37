package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span names: one per public entry point the benchmark calls, plus the
// phases that group them. Self time is reported per name.
const (
	spanIteration  = "iteration"
	spanSetup      = "setup"
	spanStage      = "stage"
	spanTraceGen   = "trace.Scaled"
	spanSocBuild   = "soc.Build"
	spanPlayTrace  = "soc.PlayTrace"
	spanLoadProg   = "soc.LoadProgram"
	spanSimRun     = "sim.run"
	spanExpRun     = "experiments.Run"
	spanStandalone = "trace.RunStandaloneCtx"
	spanSubmit     = "sweepd.submit"
	spanResults    = "sweepd.results"
	spanVerilog    = "verilog.Compile"
	spanVHDL       = "vhdl.Compile"
	spanCkptSave   = "ckpt.save"
	spanCkptRest   = "ckpt.restore"
	spanStateHash  = "ckpt.state_hash"
	spanLedger     = "ledger"
)

// spanNames lists every span name in report order.
var spanNames = []string{
	spanIteration, spanSetup, spanStage, spanTraceGen, spanSocBuild,
	spanPlayTrace, spanLoadProg, spanSimRun, spanExpRun, spanStandalone,
	spanSubmit, spanResults, spanVerilog, spanVHDL, spanCkptSave,
	spanCkptRest, spanStateHash, spanLedger,
}

// span is one timed call. Parent is the ID of the enclosing span (0 for a
// root); Point identifies the simulation point the call served (-1 when the
// call is not about one point).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Label  string        `json:"label,omitempty"`
	Point  int           `json:"point"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced runs pay one nil check per call site. Spans may be opened from
// several goroutines (the sweep service's workers).
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, point int, label string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent,
		Name: name, Label: label, Point: point, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span and returns fn's error.
func (t *tracer) do(name string, parent, point int, label string, fn func() error) error {
	id := t.begin(name, parent, point, label)
	err := fn()
	t.end(id)
	return err
}

// total sums the durations of spans named name that lie under ancestor
// (any depth; ancestor 0 means anywhere).
func (t *tracer) total(name string, ancestor int) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 && t.under(s, ancestor) {
			d += s.End - s.Start
		}
	}
	return d
}

// under reports whether s lies beneath the span with ID ancestor.
func (t *tracer) under(s span, ancestor int) bool {
	if ancestor == 0 {
		return true
	}
	for p := s.Parent; p != 0; p = t.spans[p-1].Parent {
		if p == ancestor {
			return true
		}
	}
	return false
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval covered by its children (the
// union, since children may run concurrently on different workers).
func (t *tracer) selfTimes() map[string]time.Duration {
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] += s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to [lo, hi].
func covered(children []span, lo, hi time.Duration) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if c.End >= 0 && b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			sum += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		sum += curB - curA
	}
	return sum
}

// write dumps every span as JSON to path.
func (t *tracer) write(path string) error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
