package chameleon

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lrp"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestNewValidation(t *testing.T) {
	in := lrp.MustInstance([]int{2, 2}, []float64{1, 1})
	if _, err := New(Config{Workers: 0}, in); err == nil {
		t.Fatal("accepted zero workers")
	}
	if _, err := New(Config{Workers: 1, LatencyMs: -1}, in); err == nil {
		t.Fatal("accepted negative latency")
	}
	r, err := New(Config{Workers: 2}, in)
	if err != nil {
		t.Fatal(err)
	}
	lens := r.QueueLengths()
	if lens[0] != 2 || lens[1] != 2 {
		t.Fatalf("QueueLengths = %v", lens)
	}
	if !almostEqual(r.TotalLoad(), 4) {
		t.Fatalf("TotalLoad = %v", r.TotalLoad())
	}
}

func TestSingleWorkerMakespanIsSumOfLoads(t *testing.T) {
	in := lrp.MustInstance([]int{3, 1}, []float64{2, 5})
	r, err := New(Config{Workers: 1}, in)
	if err != nil {
		t.Fatal(err)
	}
	st := r.RunIteration()
	if !almostEqual(st.Finish[0], 6) || !almostEqual(st.Finish[1], 5) {
		t.Fatalf("Finish = %v", st.Finish)
	}
	if !almostEqual(st.MakespanMs, 6) {
		t.Fatalf("Makespan = %v", st.MakespanMs)
	}
	if !almostEqual(st.Busy[0], 6) || !almostEqual(st.Busy[1], 5) {
		t.Fatalf("Busy = %v", st.Busy)
	}
	// Idle: proc 0 idles 0, proc 1 idles 1.
	if !almostEqual(st.IdleMs, 1) {
		t.Fatalf("Idle = %v", st.IdleMs)
	}
}

func TestMultiWorkerParallelism(t *testing.T) {
	// 4 equal tasks on 2 workers: makespan = 2 task lengths.
	in := lrp.MustInstance([]int{4}, []float64{3})
	r, err := New(Config{Workers: 2}, in)
	if err != nil {
		t.Fatal(err)
	}
	st := r.RunIteration()
	if !almostEqual(st.MakespanMs, 6) {
		t.Fatalf("Makespan = %v, want 6", st.MakespanMs)
	}
}

func TestApplyPlanMovesTasksAndCostsComm(t *testing.T) {
	in := lrp.MustInstance([]int{4, 0}, []float64{2, 1})
	r, err := New(Config{Workers: 1, LatencyMs: 1, PerTaskMs: 0.5}, in)
	if err != nil {
		t.Fatal(err)
	}
	p := lrp.NewPlan(in)
	p.Move(1, 0, 2)
	ms, err := r.ApplyPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Messages != 1 || ms.Tasks != 2 {
		t.Fatalf("stats = %+v", ms)
	}
	// One message with 2 tasks: arrival = 1 + 2*0.5 = 2.
	if !almostEqual(ms.LastArrivalMs, 2) {
		t.Fatalf("LastArrival = %v, want 2", ms.LastArrivalMs)
	}
	lens := r.QueueLengths()
	if lens[0] != 2 || lens[1] != 2 {
		t.Fatalf("queues after plan: %v", lens)
	}
	st := r.RunIteration()
	// Proc 0: two tasks of 2 -> 4. Proc 1: waits until 2, then 2 tasks
	// of load 2 (origin loads travel with the task) -> 6.
	if !almostEqual(st.Finish[0], 4) {
		t.Fatalf("Finish[0] = %v, want 4", st.Finish[0])
	}
	if !almostEqual(st.Finish[1], 6) {
		t.Fatalf("Finish[1] = %v, want 6 (2 arrival + 4 work)", st.Finish[1])
	}
}

func TestApplyPlanRejectsOverdraw(t *testing.T) {
	in := lrp.MustInstance([]int{1, 1}, []float64{1, 1})
	r, _ := New(Config{Workers: 1}, in)
	p := lrp.ZeroPlan(2)
	p.X[1][0] = 5 // more than proc 0 holds
	if _, err := r.ApplyPlan(p); err == nil {
		t.Fatal("accepted overdraw")
	}
	if _, err := r.ApplyPlan(lrp.ZeroPlan(3)); err == nil {
		t.Fatal("accepted wrong dimension")
	}
}

func TestMigrationImprovesImbalancedRun(t *testing.T) {
	// Loads 80 vs 0: moving half the tasks should improve makespan even
	// with communication overhead.
	in := lrp.MustInstance([]int{8, 0}, []float64{10, 1})
	cfg := Config{Workers: 1, LatencyMs: 0.1, PerTaskMs: 0.05}
	baseline, _ := New(cfg, in)
	base := baseline.RunIteration()

	r, _ := New(cfg, in)
	p := lrp.NewPlan(in)
	p.Move(1, 0, 4)
	if _, err := r.ApplyPlan(p); err != nil {
		t.Fatal(err)
	}
	st := r.RunIteration()
	if st.MakespanMs >= base.MakespanMs {
		t.Fatalf("migration did not help: %v >= %v", st.MakespanMs, base.MakespanMs)
	}
}

func TestExcessiveMigrationHurts(t *testing.T) {
	// Balanced input: any migration only adds overhead (the paper's
	// motivation for bounding k).
	in := lrp.MustInstance([]int{10, 10}, []float64{1, 1})
	baseline, _ := New(Config{Workers: 1, LatencyMs: 5, PerTaskMs: 1}, in)
	base := baseline.RunIteration()

	r, _ := New(Config{Workers: 1, LatencyMs: 5, PerTaskMs: 1}, in)
	p := lrp.NewPlan(in)
	p.Move(0, 1, 5)
	p.Move(1, 0, 5)
	if _, err := r.ApplyPlan(p); err != nil {
		t.Fatal(err)
	}
	st := r.RunIteration()
	if st.MakespanMs <= base.MakespanMs {
		t.Fatalf("gratuitous migration should hurt: %v <= %v", st.MakespanMs, base.MakespanMs)
	}
}

func TestSecondIterationSettles(t *testing.T) {
	in := lrp.MustInstance([]int{6, 0}, []float64{2, 1})
	r, _ := New(Config{Workers: 1, LatencyMs: 3, PerTaskMs: 1}, in)
	p := lrp.NewPlan(in)
	p.Move(1, 0, 3)
	if _, err := r.ApplyPlan(p); err != nil {
		t.Fatal(err)
	}
	stats := r.Run(2)
	// Iteration 2 has no in-flight tasks, so it can only be faster or
	// equal.
	if stats[1].MakespanMs > stats[0].MakespanMs+1e-9 {
		t.Fatalf("settled iteration slower: %v > %v", stats[1].MakespanMs, stats[0].MakespanMs)
	}
	if stats[1].Imbalance > 1e-9 {
		t.Fatalf("3/3 split of equal tasks should be balanced, got %v", stats[1].Imbalance)
	}
}

func TestMakespanLowerBoundProperty(t *testing.T) {
	// Property: makespan >= max(total load / (procs*workers), longest
	// task) and makespan >= per-proc busy / workers.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(5)
		tasks := make([]int, m)
		weights := make([]float64, m)
		for j := range tasks {
			tasks[j] = rng.Intn(12)
			weights[j] = 0.5 + rng.Float64()*4
		}
		in := lrp.MustInstance(tasks, weights)
		w := 1 + rng.Intn(4)
		r, err := New(Config{Workers: w}, in)
		if err != nil {
			return false
		}
		st := r.RunIteration()
		for p := 0; p < m; p++ {
			if st.Finish[p] < st.Busy[p]/float64(w)-1e-9 {
				return false
			}
		}
		longest := 0.0
		for j, n := range tasks {
			if n > 0 && weights[j] > longest {
				longest = weights[j]
			}
		}
		return st.MakespanMs >= longest-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConservationUnderRandomPlans(t *testing.T) {
	// Property: ApplyPlan conserves tasks and total load exactly.
	in := lrp.MustInstance([]int{5, 7, 3}, []float64{1, 2, 3})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, err := New(DefaultConfig(), in)
		if err != nil {
			return false
		}
		totalBefore := r.TotalLoad()
		p := lrp.NewPlan(in)
		for j := 0; j < 3; j++ {
			avail := in.Tasks[j]
			for i := 0; i < 3; i++ {
				if i == j || avail == 0 {
					continue
				}
				c := rng.Intn(avail + 1)
				p.Move(i, j, c)
				avail -= c
			}
		}
		if _, err := r.ApplyPlan(p); err != nil {
			return false
		}
		sum := 0
		for _, l := range r.QueueLengths() {
			sum += l
		}
		return sum == in.NumTasks() && almostEqual(r.TotalLoad(), totalBefore)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLPTSchedulingBeatsQueueOrder(t *testing.T) {
	// One long task buried behind short ones: queue order ends at
	// 9*1/3 + ... with the long task last; LPT runs it first.
	in := lrp.MustInstance([]int{9, 1}, []float64{1, 6})
	mk := func(lpt bool) float64 {
		r, err := New(Config{Workers: 3, LPT: lpt}, in)
		if err != nil {
			t.Fatal(err)
		}
		// Build a heterogeneous queue on proc 0: 9 short + 1 long at the
		// end. With free communication the long task arrives at time 0,
		// like the local ones, and proc 1 is left empty.
		p := lrp.NewPlan(in)
		p.Move(0, 1, 1)
		if _, err := r.ApplyPlan(p); err != nil {
			t.Fatal(err)
		}
		return r.RunIteration().MakespanMs
	}
	fifo, lpt := mk(false), mk(true)
	if lpt >= fifo {
		t.Fatalf("LPT %v not better than FIFO %v", lpt, fifo)
	}
	if !almostEqual(lpt, 6) { // long runs in parallel with the 9 shorts
		t.Fatalf("LPT makespan %v, want 6", lpt)
	}
	if !almostEqual(fifo, 9) { // long waits behind 3 waves of shorts
		t.Fatalf("FIFO makespan %v, want 9", fifo)
	}
}

func TestHeterogeneousWorkers(t *testing.T) {
	// Proc 0 has 4 workers, proc 1 only 1: same queues, different
	// finish times.
	in := lrp.MustInstance([]int{4, 4}, []float64{3, 3})
	r, err := New(Config{Workers: 1, WorkersPerProc: []int{4, 1}}, in)
	if err != nil {
		t.Fatal(err)
	}
	st := r.RunIteration()
	if !almostEqual(st.Finish[0], 3) {
		t.Fatalf("4-worker proc finished at %v, want 3", st.Finish[0])
	}
	if !almostEqual(st.Finish[1], 12) {
		t.Fatalf("1-worker proc finished at %v, want 12", st.Finish[1])
	}
}
