package workload_test

import (
	"context"
	"encoding/binary"
	"slices"
	"testing"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/workload"
)

// runProgram runs one guest program spec on a 1-core DDR4-1ch SoC and
// returns the finished system and the program's exit code.
func runProgram(t *testing.T, program string, n, sleepUs int) (*soc.System, int64) {
	t.Helper()
	spec := experiments.RunSpec{Memory: "DDR4-1ch", Limit: 50 * sim.Millisecond,
		Program: program, N: n, SleepUs: sleepUs}
	var sys *soc.System
	_, err := experiments.Run(context.Background(), spec,
		experiments.WithSystem(func(s *soc.System) error { sys = s; return nil }))
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	exited, code := sys.Cores[0].Exited()
	if !exited {
		t.Fatalf("%s: guest did not exit", spec)
	}
	return sys, code
}

// TestSumPrograms checks that SimpleLoop(n) and MemoryStream(base, n) exit
// with the sum 0+1+...+(n-1): the loop adds in registers, the stream
// writes the values to memory and adds them back.
func TestSumPrograms(t *testing.T) {
	const n = 300
	for _, program := range []string{"loop", "stream"} {
		if _, code := runProgram(t, program, n, 0); code != n*(n-1)/2 {
			t.Errorf("%s %d exited with %d, want %d", program, n, code, n*(n-1)/2)
		}
	}
}

// TestSortBenchmarkSorts checks that the Table 2 benchmark sorts: after
// the run, each phase's array in the backing store holds exactly the
// elements init_array generated for it, in ascending order.
func TestSortBenchmarkSorts(t *testing.T) {
	const n = 24
	s, code := runProgram(t, "sort", n, 1)
	if code != 0 {
		t.Errorf("sort exited with %d, want 0", code)
	}
	for _, a := range []struct {
		name  string
		base  uint64
		count int
		seed  uint64
	}{
		{"quicksort", workload.QuickBase, 10 * n, 12345},
		{"selectsort", workload.SelectBase, n, 999},
		{"bubblesort", workload.BubbleBase, n, 777},
	} {
		buf := make([]byte, 8*a.count)
		s.Store.Read(a.base, buf)
		got := make([]int64, a.count)
		for i := range got {
			got[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		// init_array's LCG: x = x*1103515245 + 12345, element = x & 0x7fffffff.
		want := make([]int64, a.count)
		x := a.seed
		for i := range want {
			x = x*1103515245 + 12345
			want[i] = int64(x & 0x7fffffff)
		}
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s array at %#x:\n  got  %v\n  want %v", a.name, a.base, got, want)
		}
	}
}
