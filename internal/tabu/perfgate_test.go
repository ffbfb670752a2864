package tabu

import (
	"math/rand"
	"testing"

	"repro/internal/cqm"
)

// TestPerfGateStepAllocFree is a CI gate: the steepest-descent step must
// not allocate. The run comes from the constructor Search uses, so the
// gate covers the delta cache exactly as Search sets it up.
func TestPerfGateStepAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *cqm.Model
	}{
		{"dense", benchModel()},
		{"sparse", qcqm1Model(16, 2, 1)},
	} {
		sc := getScratch(tc.m, 2)
		run := sc.startRun(Options{Seed: 7, Tenure: 9, Penalty: 2}, rand.New(rand.NewSource(7)))
		it := 0
		if allocs := testing.AllocsPerRun(100, func() {
			it++
			run.step(it)
		}); allocs != 0 {
			t.Errorf("%s: step allocates %.1f allocs/run, want 0", tc.name, allocs)
		}
	}
}

// TestPerfGateSearchSteadyStateAllocs is a CI gate: a full Search call
// with a pooled scratch performs only O(1) setup allocations.
func TestPerfGateSearchSteadyStateAllocs(t *testing.T) {
	m := benchModel()
	opt := Options{Iterations: 100, Seed: 3, Penalty: 2}
	Search(m, opt) // warm the scratch pool
	allocs := testing.AllocsPerRun(30, func() { Search(m, opt) })
	// Loose only to tolerate a GC emptying the sync.Pool mid-measurement;
	// steady state is ~4 (RNG source, RNG, Best slice).
	if allocs > 16 {
		t.Errorf("steady-state Search allocates %.1f allocs/run, want <= 16", allocs)
	}
}

// TestPerfGateMovesDeterministic is a CI gate: at a fixed seed the move
// count is exactly reproducible, so benchdiff can gate the moves metric
// across machines.
func TestPerfGateMovesDeterministic(t *testing.T) {
	m := benchModel()
	opt := Options{Iterations: 400, Seed: 1, Penalty: 2}
	first := Search(m, opt)
	if first.Moves == 0 {
		t.Fatalf("search made no moves")
	}
	for i := 0; i < 3; i++ {
		if got := Search(m, opt); got.Moves != first.Moves {
			t.Errorf("rerun %d: moves = %d, want %d", i, got.Moves, first.Moves)
		}
	}
}
