package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gem5rtl/internal/sim"
	"gem5rtl/internal/stats"
)

// IntervalRecord is one emitted interval: the boundary time (a simulated
// tick for IntervalDumper, elapsed host milliseconds for HostIntervalStreamer),
// a zero-based interval index, and the per-name stat deltas over the
// interval. Extra carries producer-specific context (e.g. the sweep
// service's job status snapshot on a progress stream).
type IntervalRecord struct {
	Tick     uint64             `json:"tick"`
	Interval int                `json:"interval"`
	Stats    map[string]float64 `json:"stats"`
	Extra    any                `json:"extra,omitempty"`
}

// IntervalDumper periodically samples a stats.Registry on the event queue
// and writes delta records — the per-interval counterpart of the end-of-run
// Dump, enabling Figure-5-style counter-vs-stats validation per window.
//
// Records telescope: every interval's delta is (current - previous), and
// Close emits the final partial interval, so the per-name column sums of a
// full run equal the end-of-run totals exactly.
type IntervalDumper struct {
	q        *sim.EventQueue
	reg      *stats.Registry
	w        io.Writer
	format   string // "jsonl" or "csv"
	interval sim.Tick
	names    []string
	prev     []float64
	ev       *sim.Event
	n        int
	lastTick sim.Tick
	started  bool
	closed   bool
}

// NewIntervalDumper creates a dumper emitting one record per interval in
// the given format ("jsonl" or "csv").
func NewIntervalDumper(q *sim.EventQueue, reg *stats.Registry, w io.Writer, interval sim.Tick, format string) (*IntervalDumper, error) {
	switch format {
	case "jsonl", "csv":
	default:
		return nil, fmt.Errorf("obs: unknown interval stats format %q (want jsonl or csv)", format)
	}
	if interval == 0 {
		return nil, fmt.Errorf("obs: interval stats period must be > 0")
	}
	return &IntervalDumper{q: q, reg: reg, w: w, format: format, interval: interval}, nil
}

// Start fixes the stat-name set (sorted), takes the baseline sample, and
// schedules the first dump. Stats run at PriStats so each record observes
// the post-update state of its boundary tick.
func (d *IntervalDumper) Start() {
	if d.started {
		return
	}
	d.started = true
	d.names = d.reg.Names()
	d.prev = d.sample()
	d.lastTick = d.q.Now()
	if d.format == "csv" {
		fmt.Fprintf(d.w, "tick,interval,%s\n", strings.Join(d.names, ","))
	}
	d.ev = sim.NewEventPri("obs.interval", sim.PriStats, d.tick).SetOwner(d.q.Owner("obs", "interval"))
	d.q.Schedule(d.ev, d.q.Now()+d.interval)
}

// Stop deschedules the pending dump event without emitting a final record;
// use it before checkpointing (host-side events are not serialisable).
func (d *IntervalDumper) Stop() {
	if d.ev != nil && d.ev.Scheduled() {
		d.q.Deschedule(d.ev)
	}
}

// Resume reschedules the dump event after a Stop, continuing the series at
// the next interval boundary. It is a no-op on a running or closed dumper.
func (d *IntervalDumper) Resume() {
	if d.started && !d.closed && !d.ev.Scheduled() {
		d.q.Schedule(d.ev, d.lastTick+d.interval)
	}
}

// Close emits the final partial interval (if simulated time has advanced
// past the last record) and stops the dumper. After Close, column sums
// equal end-of-run totals.
func (d *IntervalDumper) Close() error {
	if !d.started || d.closed {
		return nil
	}
	d.closed = true
	d.Stop()
	if d.q.Now() > d.lastTick {
		d.emit()
	}
	return nil
}

func (d *IntervalDumper) tick() {
	d.emit()
	d.q.Schedule(d.ev, d.q.Now()+d.interval)
}

func (d *IntervalDumper) sample() []float64 {
	out := make([]float64, len(d.names))
	for i, name := range d.names {
		v, _ := d.reg.Get(name)
		out[i] = v
	}
	return out
}

func (d *IntervalDumper) emit() {
	cur := d.sample()
	switch d.format {
	case "jsonl":
		deltas := make(map[string]float64, len(d.names))
		for i, name := range d.names {
			deltas[name] = cur[i] - d.prev[i]
		}
		rec := IntervalRecord{Tick: uint64(d.q.Now()), Interval: d.n, Stats: deltas}
		b, err := json.Marshal(rec) // map keys marshal sorted
		if err == nil {
			_, err = fmt.Fprintf(d.w, "%s\n", b)
		}
		_ = err
	case "csv":
		var sb strings.Builder
		sb.WriteString(strconv.FormatUint(uint64(d.q.Now()), 10))
		sb.WriteByte(',')
		sb.WriteString(strconv.Itoa(d.n))
		for i := range d.names {
			sb.WriteByte(',')
			sb.WriteString(strconv.FormatFloat(cur[i]-d.prev[i], 'g', -1, 64))
		}
		fmt.Fprintln(d.w, sb.String())
	}
	d.prev = cur
	d.lastTick = d.q.Now()
	d.n++
}
