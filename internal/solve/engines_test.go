package solve_test

// Cross-backend conformance tests: every solver backend in the
// repository must implement solve.Solver and honour the engine layer's
// cancellation contract — cancellation and clock deadlines stop the
// solve at the next loop boundary, the best partial result comes back
// with Stats.Interrupted set (never an error, never an incomplete
// sample), and the Feasible flag always matches the model's own
// feasibility check of the returned sample.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cqm"
	"repro/internal/exact"
	"repro/internal/hybrid"
	"repro/internal/quantum"
	"repro/internal/sa"
	"repro/internal/solve"
	"repro/internal/tabu"
)

// Compile-time checks: all five backends implement solve.Solver.
var (
	_ solve.Solver = (*sa.Engine)(nil)
	_ solve.Solver = (*tabu.Engine)(nil)
	_ solve.Solver = (*exact.Engine)(nil)
	_ solve.Solver = (*hybrid.Engine)(nil)
	_ solve.Solver = (*quantum.Engine)(nil)
)

// knapsack builds the usual small constrained model: minimize negative
// value under a cardinality cap. Optimum for ([9 7 5 4 3 2 1], 3) = -21.
func knapsack(values []float64, cap int) *cqm.Model {
	m := cqm.New()
	var sum cqm.LinExpr
	for _, v := range values {
		id := m.AddBinary("x")
		m.AddObjectiveLinear(id, -v)
		sum.Add(id, 1)
	}
	m.AddConstraint("card", sum, cqm.Le, float64(cap))
	return m
}

// hardPartition builds an unconstrained n-variable number-partition
// model with no perfect split, so branch-and-bound explores far more
// than one stop-poll interval of nodes (~931k at n=20).
func hardPartition(n int) *cqm.Model {
	m := cqm.New()
	var expr cqm.LinExpr
	total := 0.0
	for i := 0; i < n; i++ {
		v := m.AddBinary("w")
		w := float64(i*i%97 + 1)
		expr.Add(v, w)
		total += w
	}
	expr.Offset = -total/2 - 0.3
	m.AddObjectiveSquared(expr)
	return m
}

// checkResult asserts the invariants every backend result must satisfy.
func checkResult(t *testing.T, name string, m *cqm.Model, res *solve.Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: unexpected error: %v", name, err)
	}
	if res == nil {
		t.Fatalf("%s: nil result", name)
	}
	if len(res.Sample) != m.NumVars() {
		t.Fatalf("%s: sample has %d vars, model %d", name, len(res.Sample), m.NumVars())
	}
	if got := m.Feasible(res.Sample, 1e-6); got != res.Feasible {
		t.Fatalf("%s: Feasible=%v but model says %v", name, res.Feasible, got)
	}
}

func TestBackendNames(t *testing.T) {
	want := map[solve.Solver]string{
		sa.NewEngine():      "sa",
		tabu.NewEngine():    "tabu",
		exact.NewEngine():   "exact",
		hybrid.NewEngine():  "hybrid",
		quantum.NewEngine(): "quantum",
	}
	for s, name := range want {
		if s.Name() != name {
			t.Errorf("Name() = %q, want %q", s.Name(), name)
		}
	}
}

func TestHeuristicBackendsReachOptimum(t *testing.T) {
	// sa, tabu and hybrid must all match the exact optimum on the small
	// knapsack; quantum (QAOA on a simulator) only has to return a
	// complete, consistently-labelled sample.
	m := knapsack([]float64{9, 7, 5, 4, 3, 2, 1}, 3)
	want, err := exact.NewEngine().Solve(context.Background(), m)
	checkResult(t, "exact", m, want, err)
	if !want.Stats.Proven || want.Objective != -21 {
		t.Fatalf("exact: objective %v proven %v", want.Objective, want.Stats.Proven)
	}

	for _, s := range []solve.Solver{
		sa.NewEngine(),
		&tabu.Engine{Base: tabu.Options{Penalty: 16}},
		hybrid.New(hybrid.Options{Penalty: 2, PenaltyGrowth: 4}),
	} {
		res, err := s.Solve(context.Background(), m,
			solve.WithSeed(3), solve.WithReads(8), solve.WithSweeps(1200))
		checkResult(t, s.Name(), m, res, err)
		if !res.Feasible || res.Objective != want.Objective {
			t.Errorf("%s: objective %v feasible %v, want %v", s.Name(), res.Objective, res.Feasible, want.Objective)
		}
		if res.Stats.Interrupted {
			t.Errorf("%s: uninterrupted solve reports Interrupted", s.Name())
		}
	}

	res, err := quantum.NewEngine().Solve(context.Background(), m, solve.WithSeed(3))
	checkResult(t, "quantum", m, res, err)
}

func TestCancelledContextStillReturnsResult(t *testing.T) {
	// A context cancelled before Solve is the extreme point of the
	// contract: the polling backends must notice immediately and still
	// return a complete result, not an error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	m := knapsack([]float64{9, 7, 5, 4, 3, 2, 1}, 3)
	for _, s := range []solve.Solver{
		sa.NewEngine(), tabu.NewEngine(),
		hybrid.New(hybrid.Options{Penalty: 2, PenaltyGrowth: 4}),
		quantum.NewEngine(),
	} {
		res, err := s.Solve(ctx, m, solve.WithSeed(1), solve.WithReads(4), solve.WithSweeps(5000))
		checkResult(t, s.Name(), m, res, err)
		if !res.Stats.Interrupted {
			t.Errorf("%s: cancelled solve not marked Interrupted", s.Name())
		}
	}

	// exact on a large search: cancellation lands at a node-poll
	// boundary, long before the ~931k-node full search.
	m2 := hardPartition(20)
	res, err := exact.NewEngine().Solve(ctx, m2, solve.WithSeed(1))
	checkResult(t, "exact", m2, res, err)
	if !res.Stats.Interrupted || res.Stats.Proven {
		t.Fatalf("exact: Interrupted=%v Proven=%v after cancellation", res.Stats.Interrupted, res.Stats.Proven)
	}
	if res.Stats.Nodes > 100_000 {
		t.Fatalf("exact: explored %d nodes after pre-cancelled context", res.Stats.Nodes)
	}
}

// TestFakeClockDeadlinePerBackend drives every backend against a
// deadline measured purely on the injected fake clock: time "passes"
// only when the progress hook advances it, so the interruption point is
// deterministic and the test never sleeps.
func TestFakeClockDeadlinePerBackend(t *testing.T) {
	t.Run("sa", func(t *testing.T) {
		m := knapsack([]float64{9, 7, 5, 4, 3, 2, 1}, 3)
		fake := solve.NewFake(time.Unix(0, 0))
		res, err := sa.NewEngine().Solve(context.Background(), m,
			solve.WithSeed(1), solve.WithReads(2), solve.WithSweeps(100_000),
			solve.WithClock(fake), solve.WithBudget(5*time.Millisecond),
			solve.WithProgress(func(solve.Event) { fake.Advance(time.Millisecond) }))
		checkResult(t, "sa", m, res, err)
		if !res.Stats.Interrupted {
			t.Fatal("deadline did not interrupt the annealer")
		}
		if res.Stats.Sweeps >= 2*100_000 {
			t.Fatalf("annealer ran the full budget (%d sweeps) despite the deadline", res.Stats.Sweeps)
		}
		if res.Stats.Wall != fake.Since(time.Unix(0, 0)) {
			t.Fatalf("Wall %v not measured on the fake clock", res.Stats.Wall)
		}
	})

	t.Run("tabu", func(t *testing.T) {
		m := knapsack([]float64{9, 7, 5, 4, 3, 2, 1}, 3)
		fake := solve.NewFake(time.Unix(0, 0))
		res, err := tabu.NewEngine().Solve(context.Background(), m,
			solve.WithSeed(1), solve.WithReads(4), solve.WithSweeps(100_000),
			solve.WithClock(fake), solve.WithBudget(5*time.Millisecond),
			solve.WithProgress(func(solve.Event) { fake.Advance(time.Millisecond) }))
		checkResult(t, "tabu", m, res, err)
		if !res.Stats.Interrupted {
			t.Fatal("deadline did not interrupt tabu search")
		}
		if res.Stats.Reads >= 4 {
			t.Fatalf("all %d trajectories ran despite the deadline", res.Stats.Reads)
		}
	})

	t.Run("exact", func(t *testing.T) {
		m := hardPartition(20)
		fake := solve.NewFake(time.Unix(0, 0))
		// The node-poll progress cadence advances the clock 1ms per
		// batch; a 1ms budget trips the stop at the first poll.
		res, err := exact.NewEngine().Solve(context.Background(), m,
			solve.WithClock(fake), solve.WithBudget(time.Millisecond),
			solve.WithProgress(func(solve.Event) { fake.Advance(time.Millisecond) }))
		checkResult(t, "exact", m, res, err)
		if !res.Stats.Interrupted || res.Stats.Proven {
			t.Fatalf("Interrupted=%v Proven=%v, want interrupted unproven", res.Stats.Interrupted, res.Stats.Proven)
		}
		if res.Stats.Nodes > 20_000 {
			t.Fatalf("explored %d nodes past the 1ms fake deadline", res.Stats.Nodes)
		}
	})

	t.Run("quantum", func(t *testing.T) {
		m := knapsack([]float64{5, 3, 2}, 1)
		start := time.Unix(0, 0)
		fake := solve.NewFake(start)
		// Deadline == now: the parameter search aborts at its first
		// optimizer poll, but measurement of the initial parameters
		// still yields a complete sample.
		res, err := quantum.NewEngine().Solve(context.Background(), m,
			solve.WithSeed(1), solve.WithClock(fake), solve.WithDeadline(start))
		checkResult(t, "quantum", m, res, err)
		if !res.Stats.Interrupted {
			t.Fatal("expired deadline did not interrupt the parameter search")
		}
	})

	t.Run("hybrid", func(t *testing.T) {
		// The acceptance scenario: a deadline lands mid-portfolio. The
		// already-running annealing reads stop at their next sweep, the
		// tabu reads never start, and the warm-started best sample is
		// still returned feasible with Interrupted set.
		m := knapsack([]float64{9, 7, 5, 4, 3, 2, 1}, 3)
		warm := []bool{true, true, true, false, false, false, false} // feasible, objective -21
		eng := hybrid.New(hybrid.Options{
			Reads: 4, TabuReads: 2, Sweeps: 100_000, Workers: 1,
			Penalty: 2, PenaltyGrowth: 4, Initial: warm,
			Timing: hybrid.DefaultTimingModel(),
		})
		start := time.Unix(0, 0)
		fake := solve.NewFake(start)
		res, err := eng.Solve(context.Background(), m,
			solve.WithSeed(1), solve.WithClock(fake), solve.WithBudget(3*time.Millisecond),
			solve.WithProgress(func(solve.Event) { fake.Advance(time.Millisecond) }))
		checkResult(t, "hybrid", m, res, err)
		if !res.Stats.Interrupted {
			t.Fatal("mid-portfolio deadline not reported")
		}
		if !res.Feasible || res.Objective > -21 {
			t.Fatalf("interrupted solve lost the warm start: objective %v feasible %v", res.Objective, res.Feasible)
		}
		if res.Stats.Reads != 4 {
			t.Fatalf("Reads = %d, want 4 (tabu reads must be skipped after the stop)", res.Stats.Reads)
		}
		if res.Stats.Sweeps >= 4*100_000 {
			t.Fatalf("portfolio ran its full budget (%d sweeps)", res.Stats.Sweeps)
		}
		wall := fake.Since(start)
		if res.Stats.Wall != wall {
			t.Fatalf("Wall = %v, want fake-clock elapsed %v", res.Stats.Wall, wall)
		}
		tm := hybrid.DefaultTimingModel()
		if res.Stats.SimulatedCPU != wall+tm.CloudOverhead() {
			t.Fatalf("SimulatedCPU = %v, want wall %v + overhead %v", res.Stats.SimulatedCPU, wall, tm.CloudOverhead())
		}
		if res.Stats.SimulatedQPU != tm.QPUAccess {
			t.Fatalf("SimulatedQPU = %v", res.Stats.SimulatedQPU)
		}
	})
}

// TestCancellationAtArbitraryPoints is the property test of the
// cancellation contract: no matter after how many progress events the
// context is cancelled, the solve returns a complete sample whose
// Feasible flag is truthful — never an error, never a half-written
// assignment.
func TestCancellationAtArbitraryPoints(t *testing.T) {
	m := knapsack([]float64{9, 7, 5, 4, 3, 2, 1}, 3)
	mk := []func() solve.Solver{
		func() solve.Solver { return sa.NewEngine() },
		func() solve.Solver { return tabu.NewEngine() },
		func() solve.Solver { return hybrid.New(hybrid.Options{Penalty: 2, PenaltyGrowth: 4, Workers: 1}) },
	}
	for _, newSolver := range mk {
		for _, after := range []int{0, 1, 2, 3, 5, 8, 13, 34} {
			s := newSolver()
			ctx, cancel := context.WithCancel(context.Background())
			events := 0
			res, err := s.Solve(ctx, m,
				solve.WithSeed(int64(after)), solve.WithReads(3), solve.WithSweeps(200),
				solve.WithProgress(func(solve.Event) {
					events++
					if events == after {
						cancel()
					}
				}))
			checkResult(t, s.Name(), m, res, err)
			cancel()
		}
	}
}

// TestRangeRefusalsAreTyped: a backend with a stated range refuses a
// model outside it with an error wrapping solve.ErrTooLarge — exact
// above exact.MaxVars variables, quantum above quantum.MaxQubits CQM
// variables (before QUBO conversion) or QUBO qubits (slacks included) —
// and serves a model at the limit.
func TestRangeRefusalsAreTyped(t *testing.T) {
	linear := func(n int) *cqm.Model {
		m := cqm.New()
		for i := 0; i < n; i++ {
			m.AddObjectiveLinear(m.AddBinary("x"), float64(i%3-1))
		}
		return m
	}
	refused := func(name string, s solve.Solver, m *cqm.Model) {
		t.Helper()
		res, err := s.Solve(context.Background(), m, solve.WithSeed(1))
		if !errors.Is(err, solve.ErrTooLarge) || res != nil {
			t.Fatalf("%s on %d vars: got (%v, %v), want a solve.ErrTooLarge refusal", name, m.NumVars(), res, err)
		}
	}
	refused("exact", exact.NewEngine(), linear(exact.MaxVars+1))
	for _, m := range []*cqm.Model{hardPartition(20), knapsack([]float64{9, 7, 5, 4, 3, 2, 1}, 3)} {
		if m.NumVars() > exact.MaxVars {
			t.Fatalf("a %d-var ground-truth model is outside exact.MaxVars", m.NumVars())
		}
	}
	m := linear(exact.MaxVars)
	res, err := exact.NewEngine().Solve(context.Background(), m)
	checkResult(t, "exact", m, res, err)

	refused("quantum", quantum.NewEngine(), linear(quantum.MaxQubits+1))
	// 20 CQM variables fit, but slack encoding of a cardinality cap of
	// 20 adds 5 slack qubits: 25 > MaxQubits.
	slack := linear(20)
	var card cqm.LinExpr
	for i := 0; i < 20; i++ {
		card.Add(cqm.VarID(i), 1)
	}
	slack.AddConstraint("card", card, cqm.Le, 20)
	q := quantum.NewEngine()
	q.QUBO = cqm.DefaultQUBOOptions()
	refused("quantum (slacks)", q, slack)
}
