// Command perfbench is the repository benchmark: it runs one named workload
// of the simulator through its public entry points (the sweep service's HTTP
// API, experiments.Run, soc, trace, verilog/vhdl and checkpointing), checks
// every simulated output against the goldens it owns, and prints the
// workload's metrics as one JSON object on the last line of standard output.
//
//	go run . --workload dse-grid --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (host wall times of an
// untraced run, medians over the iterations that fit in --seconds); with
// --trace 1 they are the per-layer ledger of a separate traced run. See
// README.md for the workloads, the metrics and how to read the trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workDir is where runs keep their scratch stores, checkpoints and traces,
// relative to the checkout root (the directory the command runs from).
const workDir = ".bench_build/perfbench"

// minIterations is the fewest timed iterations an untraced run makes, so
// every reported median has at least three samples behind it.
const minIterations = 3

// sample is one timed iteration of a workload.
type sample struct {
	setup time.Duration
	// runs holds, per stage, the time in seconds of each of its runs.
	runs  [3][]float64
	alloc uint64 // bytes allocated during the iteration
	wall  time.Duration
	// parts holds named sub-steps of the stages, for the ledger.
	parts map[string]time.Duration
}

// workload is one named benchmark input.
type workload struct {
	name string
	// stages names the workload's three timed stages, reported as
	// stage1_s..stage3_s.
	stages [3]string
	// iterate runs one iteration: set-up, then the three stages, checking
	// every output. root is the iteration's span (0 when untraced).
	iterate func(e *env, root int) (sample, error)
	// ledger runs the traced-only measurements that are not part of an
	// iteration and fills per-layer values into e.led.
	ledger func(e *env) error
	// once runs untimed output checks made once per run (may be nil).
	once func(e *env) error
}

var workloads = []*workload{gridWorkload, contendedWorkload, pmuSortWorkload}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env is the state one run of one workload threads through its code.
type env struct {
	sz  sizes
	rng *rand.Rand
	dir string
	chk *checker
	out io.Writer
	// tr records spans and led collects per-layer values; both are set only
	// in the traced iteration and the ledger pass.
	tr  *tracer
	led map[string]float64
	// base is the traced run's untraced iteration; the ledger derives
	// timing values from it, since the self-profiler inflates the traced one.
	base sample
}

// stage is the median run of stage i, in seconds.
func (s sample) stage(i int) float64 { return median(s.runs[i]) }

func (e *env) traced() bool { return e.tr != nil }

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// say prints one human-readable progress line (never the last line).
func (e *env) say(format string, args ...any) {
	fmt.Fprintf(e.out, "perfbench: "+format+"\n", args...)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, embeddedGoldens(), "full"))
}

// run is the whole command; it returns the process exit code. want holds
// the goldens and size names the entry of sizeTable to run at (the
// benchmark runs "full"; the self-tests run "tiny").
func run(args []string, stdout, stderr io.Writer, want map[string]string, size string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: dse-grid, nvdla-contended or pmu-sort")
	seed := fs.Int64("seed", 1, "workload seed (permutes the grid's submission order)")
	seconds := fs.Int("seconds", 30, "how long the untraced run measures, in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing the per-layer ledger")
	writeGoldens := fs.String("write-goldens", "", "recompute the workload's goldens into this file, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	w := findWorkload(*name)
	if *writeGoldens != "" && w != nil {
		if err := regenerate(*writeGoldens, w, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	sz, ok := sizeTable[size]
	if !ok {
		panic("perfbench: no input size " + size)
	}
	if w == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n",
			*name, *seconds, *traceFlag)
		return 2
	}
	dir, err := os.MkdirTemp(workDir, w.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{
		sz: sz, rng: newRand(*seed), dir: dir,
		chk: newChecker(want, size+"/"+w.name+"/", stderr),
		out: stdout,
	}
	e.say("workload=%s seed=%d seconds=%d trace=%d size=%s",
		w.name, *seed, *seconds, *traceFlag, size)

	var metrics map[string]metric
	if *traceFlag == 1 {
		metrics, err = tracedRun(e, w, *seed)
	} else {
		metrics, err = untracedRun(e, w, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		e.chk.fail(err.Error())
	}
	res := result{
		Correct:   e.chk.failed == 0,
		Attempted: max(e.chk.attempted, 1),
		Failed:    e.chk.failed,
		Metrics:   metrics,
	}
	if e.chk.attempted == 0 {
		res.Failed, res.Correct = 1, false
	}
	e.say("error_rate=%g (%d failed of %d attempted)",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// untracedRun times iterations until the next one would overrun the
// budget (at least minIterations) and reports the end-to-end medians.
func untracedRun(e *env, w *workload, budget time.Duration) (map[string]metric, error) {
	if w.once != nil {
		if err := w.once(e); err != nil {
			return nil, err
		}
	}
	var samples []sample
	start := time.Now()
	for {
		s, err := timedIteration(e, w, 0)
		if err != nil {
			return nil, err
		}
		samples = append(samples, s)
		e.say("iteration %d: setup_s=%.4f %s=%.4f %s=%.4f %s=%.4f alloc_mb=%.1f",
			len(samples), s.setup.Seconds(), w.stages[0], s.stage(0),
			w.stages[1], s.stage(1), w.stages[2], s.stage(2),
			float64(s.alloc)/(1<<20))
		elapsed := time.Since(start)
		if len(samples) >= minIterations && elapsed+medianWall(samples) > budget {
			break
		}
	}
	m := map[string]metric{
		"setup_s":    {medianOf(samples, func(s sample) float64 { return s.setup.Seconds() }), "s"},
		"alloc_mb":   {medianOf(samples, func(s sample) float64 { return float64(s.alloc) / (1 << 20) }), "MB"},
		"max_rss_mb": {maxRSSMB(), "MB"},
	}
	// A stage reports the median of all its runs, pooled over the
	// iterations.
	for i := range w.stages {
		var runs []float64
		for _, s := range samples {
			runs = append(runs, s.runs[i]...)
		}
		v := median(runs)
		m[fmt.Sprintf("stage%d_s", i+1)] = metric{v, "s"}
		e.say("%s=%.4f s (median of %d runs)", w.stages[i], v, len(runs))
	}
	return m, nil
}

// timedIteration runs one iteration after a collection, so garbage from
// the previous one is not charged to it. The freed heap stays mapped: handing
// it back to the operating system would make every iteration fault its
// memory back in.
func timedIteration(e *env, w *workload, root int) (sample, error) {
	runtime.GC()
	a0 := totalAlloc()
	t0 := time.Now()
	s, err := w.iterate(e, root)
	s.wall = time.Since(t0)
	s.alloc = totalAlloc() - a0
	return s, err
}

// tracedRun makes one untraced iteration, then the same iteration traced,
// then the workload's ledger pass, and reports the per-layer metrics.
func tracedRun(e *env, w *workload, seed int64) (map[string]metric, error) {
	if w.once != nil {
		if err := w.once(e); err != nil {
			return nil, err
		}
	}
	base, err := timedIteration(e, w, 0)
	if err != nil {
		return nil, err
	}
	e.base = base
	e.tr, e.led = newTracer(), map[string]float64{}
	root := e.tr.begin(spanIteration, 0, -1, w.name)
	traced, err := timedIteration(e, w, root)
	e.tr.end(root)
	if err != nil {
		return nil, err
	}
	e.led["bench.trace_overhead"] = traced.wall.Seconds() / base.wall.Seconds()
	for _, s := range e.tr.spans {
		if s.Name == spanSetup && s.Parent == root {
			e.led["trace.gen_s"] += e.tr.total(spanTraceGen, s.ID).Seconds()
			e.led["soc.build_s"] += e.tr.total(spanSocBuild, s.ID).Seconds()
		}
	}
	if err := w.ledger(e); err != nil {
		return nil, err
	}
	for name, d := range e.tr.selfTimes() {
		e.led["self_s."+name] = d.Seconds()
	}
	path := filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	if err := e.tr.write(path); err != nil {
		return nil, err
	}
	e.say("wrote %d spans to %s", len(e.tr.spans), path)
	m := map[string]metric{}
	for _, l := range layerMetrics {
		m[l.name] = metric{e.led[l.name], l.unit}
	}
	for _, n := range spanNames {
		m["self_s."+n] = metric{e.led["self_s."+n], "s"}
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.say("%s = %g %s", k, m[k].Value, m[k].Unit)
	}
	return m, nil
}

func medianWall(samples []sample) time.Duration {
	return time.Duration(medianOf(samples, func(s sample) float64 { return float64(s.wall) }))
}

// medianOf returns the median of f over the samples.
func medianOf(samples []sample, f func(sample) float64) float64 {
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = f(s)
	}
	return median(v)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// seconds converts a float second count to a duration.
func seconds(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
