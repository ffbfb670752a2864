package route

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cqm"
	"repro/internal/exact"
	"repro/internal/lrp"
	"repro/internal/qlrb"
	"repro/internal/sa"
	"repro/internal/solve"
)

// qcqm1Model builds the QCQM1 model (K unconstrained) of a uniform
// M=procs×n instance with seeded weights in [1, 10), seeded like the
// grid exact.MaxVars is derived on.
func qcqm1Model(t *testing.T, procs, n int) *cqm.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(procs*1000 + n)))
	tasks := make([]int, procs)
	weights := make([]float64, procs)
	for j := range tasks {
		tasks[j] = n
		weights[j] = 1 + 9*rng.Float64()
	}
	in, err := lrp.NewInstance(tasks, weights)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := qlrb.Build(in, qlrb.BuildOptions{Form: qlrb.QCQM1, K: -1})
	if err != nil {
		t.Fatal(err)
	}
	return enc.Model
}

// TestExactRangeFailsOverOffTheDeadline: behind a router over
// {sa, exact}, a served-size model that reaches exact is refused with
// ErrTooLarge before any search, counted as an exact error, and served
// by sa — all far inside the 2 s budget on a fake clock that advances
// 1 ms per progress event (so a searching exact would run it out).
// An in-range model still reaches exact and is proven.
func TestExactRangeFailsOverOffTheDeadline(t *testing.T) {
	const budget = 2 * time.Second
	clk := solve.NewFake(time.Unix(0, 0))
	opts := []solve.Option{
		solve.WithClock(clk), solve.WithBudget(budget), solve.WithSeed(1), solve.WithSweeps(10),
		solve.WithProgress(func(solve.Event) { clk.Advance(time.Millisecond) }),
	}

	r, err := New(Options{}, sa.NewEngine(), exact.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	big := qcqm1Model(t, 16, 100)
	start := clk.Now()
	for i := 0; i < 2; i++ { // smooth round-robin: sa first, then exact
		res, err := r.Solve(context.Background(), big, opts...)
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		if res.Stats.Interrupted {
			t.Fatalf("solve %d ran into the deadline", i)
		}
	}
	if el := clk.Since(start); el >= budget/10 {
		t.Fatalf("two oversize solves took %v of fake time, want far under %v", el, budget)
	}
	tal := r.Tallies()
	if s, e := tal[0], tal[1]; s.OK != 2 || e.Picks != 1 || e.Errors != 1 || e.OK != 0 || e.FailRate == 0 {
		t.Fatalf("tallies: sa %+v, exact %+v; want sa serving both, exact one refusal", s, e)
	}

	r, err = New(Options{Failover: 1}, exact.NewEngine(), sa.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	small := qcqm1Model(t, 3, 100)
	if small.NumVars() > exact.MaxVars {
		t.Fatalf("in-range model has %d vars > MaxVars", small.NumVars())
	}
	res, err := r.Solve(context.Background(), small, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Proven || r.Tallies()[0].OK != 1 {
		t.Fatalf("in-range model: proven=%v, exact tally %+v; want exact to prove it", res.Stats.Proven, r.Tallies()[0])
	}
}

// TestTooLargeIsShared: route.ErrTooLarge is solve.ErrTooLarge, so a
// Gated refusal and a backend's own range refusal match either name.
func TestTooLargeIsShared(t *testing.T) {
	if !errors.Is(ErrTooLarge, solve.ErrTooLarge) || !errors.Is(solve.ErrTooLarge, ErrTooLarge) {
		t.Fatal("route.ErrTooLarge and solve.ErrTooLarge differ")
	}
}
