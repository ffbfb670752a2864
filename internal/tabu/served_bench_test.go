package tabu_test

import (
	"math/rand"
	"testing"

	"repro/internal/lrp"
	"repro/internal/qlrb"
	"repro/internal/tabu"
)

// BenchmarkTabuSearchServed runs a fixed-seed, fixed-length search on
// the model shape the daemon serves: QCQM1 of a uniform M=16 x 100-task
// instance (1680 variables, K unconstrained), built by qlrb.Build with
// seeded weights in [1, 10). The moves metric is deterministic and
// gated; moves/s is the advisory per-move speed of the search loop.
func BenchmarkTabuSearchServed(b *testing.B) {
	const procs, tasksPerProc = 16, 100
	rng := rand.New(rand.NewSource(16100))
	tasks := make([]int, procs)
	weights := make([]float64, procs)
	for j := range tasks {
		tasks[j] = tasksPerProc
		weights[j] = 1 + 9*rng.Float64()
	}
	in, err := lrp.NewInstance(tasks, weights)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := qlrb.Build(in, qlrb.BuildOptions{Form: qlrb.QCQM1, K: -1})
	if err != nil {
		b.Fatal(err)
	}
	m := enc.Model
	opt := tabu.Options{Iterations: 2000, Seed: 1}
	tabu.Search(m, opt) // build the model's layout and flip index once
	var moves int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		moves += tabu.Search(m, opt).Moves
	}
	b.ReportMetric(float64(moves)/b.Elapsed().Seconds(), "moves/s")
	b.ReportMetric(float64(moves)/float64(b.N), "moves")
}
