package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

//go:embed goldens.json
var goldensJSON []byte

// embeddedGoldens decodes the goldens compiled into the binary.
func embeddedGoldens() map[string]string {
	var g map[string]string
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		panic("perfbench: goldens.json is not a JSON object of strings: " + err.Error())
	}
	return g
}

// checker compares simulated outputs with the goldens and counts attempts
// and failures. Keys are "<size>/<workload>/<item>". With want == nil it
// records the values instead (golden regeneration).
type checker struct {
	prefix    string
	want      map[string]string
	got       map[string]string
	attempted int
	failed    int
	log       io.Writer
}

func newChecker(want map[string]string, prefix string, log io.Writer) *checker {
	return &checker{prefix: prefix, want: want, got: map[string]string{}, log: log}
}

// point checks one point or run: every item must equal its golden. It
// counts as one attempt, failed if any item differs or has no golden.
func (c *checker) point(name string, items ...string) {
	c.attempted++
	ok := true
	for i := 0; i+1 < len(items); i += 2 {
		key := c.prefix + name + "/" + items[i]
		got := items[i+1]
		if c.want == nil {
			if old, seen := c.got[key]; seen && old != got {
				ok = false
				fmt.Fprintf(c.log, "perfbench: %s differs between runs: %s and %s\n", key, old, got)
			}
			c.got[key] = got
			continue
		}
		want, have := c.want[key]
		if !have || want != got {
			ok = false
			fmt.Fprintf(c.log, "perfbench: wrong output %s: got %s, want %q\n", key, got, want)
		}
	}
	if !ok {
		c.failed++
	}
}

// cond counts one attempt that must hold.
func (c *checker) cond(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(c.log, "perfbench: check failed: "+format+"\n", args...)
	}
}

// fail counts one failed attempt (a run that did not complete).
func (c *checker) fail(msg string) {
	c.attempted++
	c.failed++
	fmt.Fprintln(c.log, "perfbench: run failed:", msg)
}

// regenerate recomputes the goldens of one workload, at every size, from
// one traced run per size (an untraced iteration, a traced one and the
// ledger pass, so every checked output is recorded and the two execution
// paths must agree), and merges them into the goldens file at path.
//
// Each workload is regenerated in a process of its own, as the benchmark
// runs it: soc.System.StateHash digests the process-wide packet-ID
// high-water mark, which the guest programs of pmu-sort advance, so a hash
// recorded after another workload ran in the same process would not match.
func regenerate(path string, w *workload, out io.Writer) error {
	all := map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	names := make([]string, 0, len(sizeTable))
	for n := range sizeTable {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, size := range names {
		prefix := size + "/" + w.name + "/"
		for k := range all {
			if strings.HasPrefix(k, prefix) {
				delete(all, k)
			}
		}
		dir, err := os.MkdirTemp(workDir, "goldens-")
		if err != nil {
			return err
		}
		e := &env{sz: sizeTable[size], rng: newRand(1), dir: dir,
			chk: newChecker(nil, prefix, out), out: out}
		_, err = tracedRun(e, w, 1)
		os.RemoveAll(dir)
		if err == nil && e.chk.failed > 0 {
			err = fmt.Errorf("%d checks failed", e.chk.failed)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", strings.TrimSuffix(prefix, "/"), err)
		}
		for k, v := range e.chk.got {
			all[k] = v
		}
		fmt.Fprintf(out, "perfbench: %s: %d goldens\n", prefix, len(e.chk.got))
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
