package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/prof"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/sweepd"
)

// gridWorkload serves the full Figure 7 grid (sanity3, 144 points) from an
// in-process sweep server over loopback HTTP: a cold submission, cached
// resubmissions, and a restarted server that restores every point from the
// warm-start checkpoints the cold phase wrote.
var gridWorkload = &workload{
	name:    "dse-grid",
	stages:  [3]string{"sweep_cold_s", "sweep_restart_s", "sweep_cached_s"},
	iterate: gridIterate,
	ledger:  gridLedger,
}

// gridWorkers is the sweep server's worker pool size. On a 2-CPU host two
// workers left no CPU for the service, the collector and the HTTP path, and
// per-iteration sweep times swung by 15%; with one worker they stay within
// 5%, and the schedule no longer depends on the seed's submission order.
const gridWorkers = 1

func gridSpecs(sz sizes) []experiments.RunSpec {
	return experiments.DSESpecs("sanity3", experiments.DSEParams{Scale: sz.GridScale, Limit: pointLimit})
}

func gridIterate(e *env, root int) (sample, error) {
	var smp sample
	specs := gridSpecs(e.sz)

	// Set-up: build every point's system, timed apart from the sweep.
	t0 := time.Now()
	setup := e.tr.begin(spanSetup, root, -1, "")
	for i, spec := range specs {
		if _, err := buildPoint(e, setup, i, spec, true); err != nil {
			return smp, err
		}
	}
	e.tr.end(setup)
	smp.setup = time.Since(t0)

	dir, err := os.MkdirTemp(e.dir, "grid-")
	if err != nil {
		return smp, err
	}
	defer os.RemoveAll(dir)
	ckptDir := filepath.Join(dir, "ckpt")

	// Cold submission, then cached resubmissions on the same server.
	srv, err := startServer(e, filepath.Join(dir, "store-cold"), ckptDir)
	if err != nil {
		return smp, err
	}
	cold, err := srv.phase(e, root, "cold", specs)
	if err != nil {
		srv.stop()
		return smp, err
	}
	smp.runs[0] = []float64{cold.wall.Seconds()}
	smp.parts = map[string]time.Duration{"cold_exec": cold.exec}
	checkGrid(e, specs, cold)
	var cached []float64
	for r := 0; r < e.sz.CachedReps; r++ {
		var ph phaseResult
		if ph, err = srv.phase(e, root, "cached", specs); err != nil {
			break
		}
		cached = append(cached, ph.wall.Seconds())
		e.chk.cond(bytes.Equal(ph.encoded, cold.encoded), "cached resubmission %d encodes differently from the cold phase", r)
	}
	smp.runs[2] = cached
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return smp, err
	}
	if e.traced() {
		e.led["sweepd.cached_resubmit_s"] = smp.stage(2)
		exec := cold.exec.Seconds()
		e.led["sweepd.exec_s"] = exec
		e.led["sweepd.service_s"] = float64(gridWorkers)*cold.wall.Seconds() - exec
		addEvents(e.led, srv.coldAttr)
		// Per-event cost comes from the untraced iteration, like the other
		// workloads'. experiments.Run builds, warms up and checkpoints each
		// point inside the executor, so this includes that per-point set-up.
		if ev := e.led["sim.events"]; ev > 0 {
			e.led["sim.host_ns_per_event"] = e.base.parts["cold_exec"].Seconds() * 1e9 / ev
		}
	}

	// Restart: a new server with a fresh store and the same checkpoints.
	srv, err = startServer(e, filepath.Join(dir, "store-restart"), ckptDir)
	if err != nil {
		return smp, err
	}
	before, err := srv.ckptCounts()
	var restart phaseResult
	if err == nil {
		restart, err = srv.phase(e, root, "restart", specs)
	}
	var after sweepd.CkptCacheCounts
	if err == nil {
		after, err = srv.ckptCounts()
	}
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return smp, err
	}
	smp.runs[1] = []float64{restart.wall.Seconds()}
	e.chk.cond(bytes.Equal(restart.encoded, cold.encoded), "restart phase encodes differently from the cold phase")
	hits := after.Hits - before.Hits
	looked := hits + (after.Misses - before.Misses) + (after.Stale - before.Stale) + (after.Corrupt - before.Corrupt)
	e.chk.cond(hits == uint64(len(specs)) && looked == hits,
		"restart restored %d of %d points from checkpoints (%d lookups)", hits, len(specs), looked)
	if e.traced() {
		exec := restart.exec.Seconds()
		e.led["sweepd.restart_exec_s"] = exec
		e.led["sweepd.restart_service_s"] = float64(gridWorkers)*restart.wall.Seconds() - exec
		if looked > 0 {
			e.led["sweepd.ckpt_hit_ratio"] = float64(hits) / float64(looked)
		}
	}
	return smp, nil
}

// checkGrid checks the cold phase: every point's ticks and Perf against
// the goldens, and the canonical encoding's digest.
func checkGrid(e *env, specs []experiments.RunSpec, ph phaseResult) {
	for i, r := range ph.results {
		ticks := itoa(uint64(r.Ticks))
		if r.Err != "" || r.Spec != specs[i] {
			ticks = "error: " + r.Err
		}
		e.chk.point(specs[i].String(), "ticks", ticks,
			"perf", strconv.FormatFloat(r.Perf, 'g', -1, 64))
	}
	sum := sha256.Sum256(ph.encoded)
	e.chk.point("results", "sha256", hex.EncodeToString(sum[:]))
}

// gridServer is one in-process sweep server on a loopback listener.
type gridServer struct {
	srv    *sweepd.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan struct{}
	// execNs adds up the time spent in the executor.
	execNs atomic.Int64

	// Traced runs only: the span the current phase runs under, and the
	// merged self-profiler report of the cold phase.
	mu       sync.Mutex
	parent   int
	cold     bool
	coldAttr *prof.Report
	index    map[experiments.RunSpec]int
}

// startServer boots a server whose executor is composed the way the
// default one is (experiments.Run with warm start against ckptDir), wrapped
// to add up the time spent in it. A traced run also records each call as a
// span and attaches the self-profiler.
func startServer(e *env, storeDir, ckptDir string) (*gridServer, error) {
	g := &gridServer{client: &http.Client{}, served: make(chan struct{})}
	cfg := sweepd.Config{
		Workers: gridWorkers, StoreDir: storeDir, CkptDir: ckptDir,
		Warmup: e.sz.GridWarmup, StreamPeriod: time.Hour,
	}
	opts := []experiments.Option{
		experiments.WithWarmStart(cfg.Warmup, experiments.NewCheckpointCache(ckptDir)),
	}
	if e.traced() {
		g.index = map[experiments.RunSpec]int{}
		for i, s := range gridSpecs(e.sz) {
			g.index[s] = i
		}
	}
	cfg.RunPoint = func(ctx context.Context, spec experiments.RunSpec) (sim.Tick, error) {
		t0 := time.Now()
		defer func() { g.execNs.Add(int64(time.Since(t0))) }()
		if !e.traced() {
			return experiments.Run(ctx, spec, opts...)
		}
		g.mu.Lock()
		parent, cold := g.parent, g.cold
		g.mu.Unlock()
		id := e.tr.begin(spanExpRun, parent, g.index[spec], spec.String())
		defer e.tr.end(id)
		ropts := append(append([]experiments.Option{}, opts...),
			experiments.WithSelfProfile(0, func(rep *prof.Report) {
				if !cold {
					return
				}
				g.mu.Lock()
				if g.coldAttr == nil {
					g.coldAttr = &prof.Report{}
				}
				g.coldAttr.Merge(rep)
				g.mu.Unlock()
			}))
		return experiments.Run(ctx, spec, ropts...)
	}
	srv, err := sweepd.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv.Start()
	g.srv = srv
	g.base = "http://" + ln.Addr().String()
	g.hs = &http.Server{Handler: srv.Handler()}
	go func() {
		defer close(g.served)
		_ = g.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return g, nil
}

// stop closes the listener, waits for the HTTP server to return and drains
// the worker pool.
func (g *gridServer) stop() error {
	err := g.hs.Close()
	<-g.served
	g.client.CloseIdleConnections()
	if derr := g.srv.Drain(context.Background()); err == nil {
		err = derr
	}
	return err
}

// phaseResult is one submission: its results in grid order, their
// canonical encoding, and the time from submission to the last result.
type phaseResult struct {
	results []sweepd.PointResult
	encoded []byte
	wall    time.Duration
	exec    time.Duration // time spent in the executor
	span    int
}

// phase submits the grid in a seed-permuted order, waits for the job on
// its progress stream (which ends when the job does), fetches the results
// and returns them in grid order. It starts after an untimed collection,
// so no phase pays for garbage an earlier step left, such as the set-up's
// 144 systems.
func (g *gridServer) phase(e *env, root int, name string, specs []experiments.RunSpec) (phaseResult, error) {
	var ph phaseResult
	runtime.GC()
	order := e.rng.Perm(len(specs))
	batch := make([]experiments.RunSpec, len(specs))
	for k, i := range order {
		batch[k] = specs[i]
	}
	body, err := json.Marshal(sweepd.SubmitRequest{Client: "perfbench", Specs: batch})
	if err != nil {
		return ph, err
	}
	ph.span = e.tr.begin(spanSubmit, root, -1, name)
	defer e.tr.end(ph.span)
	g.mu.Lock()
	g.parent, g.cold = ph.span, name == "cold"
	g.mu.Unlock()

	exec0 := g.execNs.Load()
	t0 := time.Now()
	var sub sweepd.SubmitResponse
	if err := g.call(http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &sub); err != nil {
		return ph, err
	}
	if err := g.call(http.MethodGet, "/v1/jobs/"+sub.ID+"/stream", nil, http.StatusOK, nil); err != nil {
		return ph, err
	}
	var got []sweepd.PointResult
	err = e.tr.do(spanResults, ph.span, -1, "", func() error {
		return g.call(http.MethodGet, "/v1/jobs/"+sub.ID+"/results", nil, http.StatusOK, &got)
	})
	ph.wall = time.Since(t0)
	ph.exec = time.Duration(g.execNs.Load() - exec0)
	if err != nil {
		return ph, err
	}
	if len(got) != len(specs) {
		return ph, fmt.Errorf("%s phase: %d results for %d points", name, len(got), len(specs))
	}
	ph.results = make([]sweepd.PointResult, len(specs))
	for k, i := range order {
		ph.results[i] = got[k]
	}
	ph.encoded = sweepd.EncodeResults(ph.results)
	return ph, nil
}

// call makes one request and decodes a JSON reply into out (or discards
// the body when out is nil).
func (g *gridServer) call(method, path string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, g.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// ckptCounts reads the warm-start cache counters from the status endpoint.
func (g *gridServer) ckptCounts() (sweepd.CkptCacheCounts, error) {
	var st sweepd.ServerStatus
	err := g.call(http.MethodGet, "/v1/status", nil, http.StatusOK, &st)
	return st.CkptCache, err
}

// gridLedger measures the checkpoint layer from outside: for every grid
// point it runs the warm-up prefix, saves the system, restores it into a
// fresh build and digests the restored state, which must match the saved
// system's digest.
func gridLedger(e *env) error {
	ledger := e.tr.begin(spanLedger, 0, -1, "ckpt")
	defer e.tr.end(ledger)
	for i, spec := range gridSpecs(e.sz) {
		s, err := buildPoint(e, ledger, i, spec, false)
		if err != nil {
			return err
		}
		if _, _, err := s.RunNVDLAPhase(context.Background(), e.sz.GridWarmup); err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := timed(e, spanCkptSave, ledger, i, "ckpt.save_s", func() error { return s.Save(&buf) }); err != nil {
			return err
		}
		e.led["ckpt.bytes"] += float64(buf.Len())
		want, err := s.StateHash()
		if err != nil {
			return err
		}
		fresh, err := soc.Build(specConfig(spec))
		if err != nil {
			return err
		}
		if err := timed(e, spanCkptRest, ledger, i, "ckpt.restore_s", func() error {
			_, err := fresh.Restore(bytes.NewReader(buf.Bytes()))
			return err
		}); err != nil {
			return err
		}
		var got uint64
		if err := timed(e, spanStateHash, ledger, i, "ckpt.state_hash_s", func() error {
			got, err = fresh.StateHash()
			return err
		}); err != nil {
			return err
		}
		e.chk.cond(got == want, "%v: restored state hash %x, saved %x", spec, got, want)
	}
	return nil
}

// timed runs fn under a span and adds its duration to ledger entry key.
func timed(e *env, name string, parent, point int, key string, fn func() error) error {
	t0 := time.Now()
	err := e.tr.do(name, parent, point, "", fn)
	e.led[key] += time.Since(t0).Seconds()
	return err
}
