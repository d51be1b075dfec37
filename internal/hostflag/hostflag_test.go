package hostflag

import (
	"sync"
	"testing"

	"gem5rtl/internal/prof"
)

// TestProfileSinkMergesConcurrently feeds the sink from several goroutines,
// as a sweep's workers do, and checks every report lands in the aggregate.
func TestProfileSinkMergesConcurrently(t *testing.T) {
	if (&Flags{}).ProfileSink() != nil {
		t.Fatal("sink returned with -self-profile off")
	}
	f := &Flags{SelfProfile: 64}
	sink := f.ProfileSink()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sink(&prof.Report{Samples: []prof.Sample{{Component: "cpu0", Kind: "tick", Events: 3}}})
		}()
	}
	wg.Wait()
	if len(f.attr.Samples) != 1 || f.attr.Samples[0].Events != 24 {
		t.Errorf("merged report %+v, want one sample with 24 events", f.attr.Samples)
	}
}

// TestExitHooksRunOnceLastFirst checks the exit hooks run in reverse
// registration order — a file's writer flushes before the file closes —
// and only once even if both exit paths are reached.
func TestExitHooksRunOnceLastFirst(t *testing.T) {
	var order []int
	f := &Flags{}
	for i := 0; i < 3; i++ {
		f.OnExit(func() { order = append(order, i) })
	}
	f.Finish()
	f.runHooks()
	if len(order) != 3 || order[0] != 2 || order[2] != 0 {
		t.Errorf("hooks ran in order %v, want [2 1 0]", order)
	}
}
