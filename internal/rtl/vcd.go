package rtl

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// VCDWriter emits IEEE 1364 value-change-dump waveforms for a Model, the
// debugging feature the paper highlights (and whose cost dominates Table 2's
// gem5+PMU+waveform rows). Tracing can be enabled and disabled dynamically
// during simulation, mirroring Verilator's runtime trace control.
type VCDWriter struct {
	w        *bufio.Writer
	enabled  bool
	ids      []string // signal index -> VCD identifier
	last     []uint64
	period   uint64 // timestamp units per cycle
	headerOK bool
}

// AttachVCD connects a VCD writer to the model. period is the number of VCD
// time units (1 ns each) per clock cycle. Tracing starts enabled.
func (m *Model) AttachVCD(w io.Writer, period uint64) *VCDWriter {
	if period == 0 {
		period = 1
	}
	v := &VCDWriter{
		w:       bufio.NewWriter(w),
		enabled: true,
		ids:     make([]string, len(m.c.Signals)),
		last:    make([]uint64, len(m.c.Signals)),
		period:  period,
	}
	for i := range m.c.Signals {
		v.ids[i] = vcdID(i)
	}
	m.vcd = v
	v.writeHeader(m)
	return v
}

// SetEnabled toggles waveform dumping at runtime.
func (v *VCDWriter) SetEnabled(on bool) { v.enabled = on }

// Enabled reports whether dumping is active.
func (v *VCDWriter) Enabled() bool { return v.enabled }

// Flush flushes buffered output; call at end of simulation.
func (v *VCDWriter) Flush() error { return v.w.Flush() }

// Resync realigns the writer with the model after an out-of-band state change
// (checkpoint restore). The writer's change-detection snapshot would otherwise
// still describe the pre-restore values, so the first post-restore dump would
// emit a wrong delta. Resync dumps every signal's current value at the
// restored cycle's timestamp and refreshes the snapshot. Note the waveform
// FILE is not part of a checkpoint: a restored run's trace begins at the
// restore point rather than replaying history.
func (v *VCDWriter) Resync(m *Model) {
	fmt.Fprintf(v.w, "#%d\n", m.cycle*v.period)
	for i := range m.c.Signals {
		v.writeValue(m.c.Signals[i].Width, m.vals[i], v.ids[i])
		v.last[i] = m.vals[i]
	}
}

// vcdID generates the printable short identifiers VCD uses ("!", "\"", ...).
func vcdID(i int) string {
	const base = 94 // printable ASCII 33..126
	s := ""
	for {
		s += string(rune(33 + i%base))
		i /= base
		if i == 0 {
			break
		}
		i--
	}
	return s
}

func (v *VCDWriter) writeHeader(m *Model) {
	fmt.Fprintf(v.w, "$date gem5rtl $end\n$version gem5rtl rtl engine $end\n$timescale 1ns $end\n")
	fmt.Fprintf(v.w, "$scope module %s $end\n", m.c.Name)
	for i, s := range m.c.Signals {
		kind := "wire"
		if s.Kind == SigReg {
			kind = "reg"
		}
		if s.Width == 1 {
			fmt.Fprintf(v.w, "$var %s 1 %s %s $end\n", kind, v.ids[i], s.Name)
		} else {
			fmt.Fprintf(v.w, "$var %s %d %s %s [%d:0] $end\n", kind, s.Width, v.ids[i], s.Name, s.Width-1)
		}
	}
	fmt.Fprintf(v.w, "$upscope $end\n$enddefinitions $end\n$dumpvars\n")
	for i := range m.c.Signals {
		v.writeValue(m.c.Signals[i].Width, m.vals[i], v.ids[i])
		v.last[i] = m.vals[i]
	}
	fmt.Fprintf(v.w, "$end\n#0\n")
	v.headerOK = true
}

func (v *VCDWriter) writeValue(width int, val uint64, id string) {
	if width == 1 {
		v.w.WriteString(strconv.FormatUint(val&1, 10))
		v.w.WriteString(id)
		v.w.WriteByte('\n')
		return
	}
	v.w.WriteByte('b')
	v.w.WriteString(strconv.FormatUint(val, 2))
	v.w.WriteByte(' ')
	v.w.WriteString(id)
	v.w.WriteByte('\n')
}

// dump writes changed signals at the current cycle's timestamp.
func (v *VCDWriter) dump(m *Model) {
	wroteTime := false
	for i := range m.c.Signals {
		if m.vals[i] == v.last[i] {
			continue
		}
		if !wroteTime {
			fmt.Fprintf(v.w, "#%d\n", m.cycle*v.period)
			wroteTime = true
		}
		v.writeValue(m.c.Signals[i].Width, m.vals[i], v.ids[i])
		v.last[i] = m.vals[i]
	}
}
