package chameleon

import (
	"runtime"
	"testing"

	"repro/internal/lrp"
)

// TestPerfGateSimulatorAllocs is a CI gate on the run-length queues:
// building a runtime and applying a plan cost allocations per process
// and per message, never per task, and a warm RunIteration allocates
// only the Finish and Busy slices it returns.
func TestPerfGateSimulatorAllocs(t *testing.T) {
	const m = 8
	instance := func(tasks int) *lrp.Instance {
		counts := make([]int, m)
		weights := make([]float64, m)
		for j := range counts {
			counts[j] = tasks
			weights[j] = float64(1 + j%3)
		}
		return lrp.MustInstance(counts, weights)
	}
	cfg := DefaultConfig()

	small, large := instance(10), instance(10000)
	newAllocs := func(in *lrp.Instance) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := New(cfg, in); err != nil {
				t.Fatal(err)
			}
		})
	}
	if s, l := newAllocs(small), newAllocs(large); s != l {
		t.Errorf("New: %.0f allocs at 10 tasks/proc, %.0f at 10000", s, l)
	}
	newBytes := func(in *lrp.Instance) uint64 {
		return bytesPerRun(20, func() {
			if _, err := New(cfg, in); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A per-task queue would take 24 bytes per task here, ~1.9 MB.
	if s, l := newBytes(small), newBytes(large); l > s+256 {
		t.Errorf("New: %d bytes at 10 tasks/proc, %d at 10000", s, l)
	}

	// Senders 0..m/2-1 each send c tasks to two of the receivers
	// m/2..m-1; no process forwards, so both plans move the same runs and
	// only c differs.
	plan := func(c int) *lrp.Plan {
		p := lrp.ZeroPlan(m)
		for j := 0; j < m/2; j++ {
			p.X[m/2+j][j] = c
			p.X[m/2+(j+1)%(m/2)][j] = c
		}
		return p
	}
	applyAllocs := func(p *lrp.Plan) float64 {
		return testing.AllocsPerRun(20, func() {
			r, err := New(cfg, large)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.ApplyPlan(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	if s, l := applyAllocs(plan(1)), applyAllocs(plan(4000)); s != l {
		t.Errorf("New+ApplyPlan: %.0f allocs moving 1 task per message, %.0f moving 4000", s, l)
	}

	r, err := New(Config{Workers: 4, LatencyMs: 0.1, PerTaskMs: 0.05, LPT: true}, large)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ApplyPlan(plan(4000)); err != nil {
		t.Fatal(err)
	}
	r.RunIteration() // warm the scratch buffers
	if allocs := testing.AllocsPerRun(5, func() { r.RunIteration() }); allocs != 2 {
		t.Errorf("warm RunIteration: %.0f allocs, want 2 (Finish and Busy)", allocs)
	}
}

// bytesPerRun is the byte-count twin of testing.AllocsPerRun: the mean
// heap bytes one call of f allocates, after one warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
