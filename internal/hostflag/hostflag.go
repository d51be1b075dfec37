// Package hostflag is the host-side flag table the run binaries share:
// -timeout, -pprof, -host-metrics, -self-profile and -self-profile-out.
// These flags steer the host process, never the simulated machine, so every
// binary registers them the same way and gets the same behaviour: a run
// context bounded by -timeout, a pprof server, a host-metrics monitor, and
// one merged self-profile exported at exit. Fatal replaces os.Exit so that
// an aborted run still closes and flushes its output files.
package hostflag

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"gem5rtl/internal/obs"
	"gem5rtl/internal/prof"
)

// Flags holds the parsed host flags of one binary (see Register for their
// meaning) and the cleanup hooks its exit paths run.
type Flags struct {
	Timeout        time.Duration
	Pprof          string
	HostMetrics    string
	SelfProfile    int
	SelfProfileOut string

	name    string
	cleanup []func()
	mu      sync.Mutex
	attr    prof.Report
}

// Register adds the shared host flags to flag.CommandLine. name prefixes
// the binary's fatal error messages.
func Register(name string) *Flags {
	f := &Flags{name: name}
	flag.DurationVar(&f.Timeout, "timeout", 0, "host wall-clock budget for the whole run (0 = none)")
	flag.StringVar(&f.Pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.StringVar(&f.HostMetrics, "host-metrics", "", "write periodic host runtime metrics (JSONL) to this file")
	flag.IntVar(&f.SelfProfile, "self-profile", 0, "attach the event-kernel self-profiler to every simulated run with this clock-read cadence in dispatches (64 is a good default; 0 = off)")
	flag.StringVar(&f.SelfProfileOut, "self-profile-out", "", "export file for the merged self-profile: .pb.gz = pprof protobuf, else folded stacks (default: print an attribution table to stderr)")
	return f
}

// Start brings up the host-side services after flag.Parse — the pprof
// server and the host-metrics monitor — and returns the run's context,
// bounded by -timeout. A failure to start one is fatal.
func (f *Flags) Start() context.Context {
	ctx := context.Background()
	if f.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.Timeout)
		f.OnExit(cancel)
	}
	if f.Pprof != "" {
		f.OnExit(Pprof(f.name, f.Pprof))
	}
	if f.HostMetrics != "" {
		mon := &obs.HostMonitor{W: f.Create(f.HostMetrics)}
		mon.Start()
		f.OnExit(mon.Stop)
	}
	return ctx
}

// Pprof serves net/http/pprof on addr and returns the stop function; a
// listen failure is fatal. Start calls it for -pprof; binaries that take
// only that flag of the table call it directly.
func Pprof(name, addr string) (stop func()) {
	stop, err := obs.StartPprof(addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "# pprof on http://%s/debug/pprof/\n", addr)
	return stop
}

// OnExit registers fn to run at exit, on both Finish and Fatal; hooks run
// last registered first.
func (f *Flags) OnExit(fn func()) { f.cleanup = append(f.cleanup, fn) }

// Create opens an output file that is closed at exit, even a fatal one.
// The empty path means stderr.
func (f *Flags) Create(path string) io.Writer {
	if path == "" {
		return os.Stderr
	}
	file, err := os.Create(path)
	if err != nil {
		f.Fatal(err)
	}
	f.OnExit(func() { file.Close() })
	return file
}

// ProfileSink returns a concurrency-safe sink that merges every run's
// attribution report into the one Finish exports, or nil when
// -self-profile is off.
func (f *Flags) ProfileSink() func(*prof.Report) {
	if f.SelfProfile <= 0 {
		return nil
	}
	return func(rep *prof.Report) {
		f.mu.Lock()
		f.attr.Merge(rep)
		f.mu.Unlock()
	}
}

// Finish ends a successful run: it exports the merged self-profile (when
// -self-profile is on) and runs the exit hooks.
func (f *Flags) Finish() {
	if f.SelfProfile > 0 {
		if err := f.attr.Export(f.SelfProfileOut, os.Stderr); err != nil {
			f.Fatal(err)
		}
		if f.SelfProfileOut != "" {
			fmt.Fprintf(os.Stderr, "# self-profile written to %s\n", f.SelfProfileOut)
		}
	}
	f.runHooks()
}

// Fatal runs the exit hooks, so output files are flushed and closed even
// when a run aborts (a watchdog trip, a blown -timeout), then prints err
// and exits with status 1.
func (f *Flags) Fatal(err error) {
	f.runHooks()
	fmt.Fprintf(os.Stderr, "%s: %v\n", f.name, err)
	os.Exit(1)
}

// runHooks runs and clears the exit hooks, last registered first.
func (f *Flags) runHooks() {
	hooks := f.cleanup
	f.cleanup = nil
	for i := len(hooks) - 1; i >= 0; i-- {
		hooks[i]()
	}
}
