package exact

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cqm"
	"repro/internal/lrp"
	"repro/internal/obs"
	"repro/internal/qlrb"
	"repro/internal/solve"
)

// qcqm1 builds the QCQM1 model (K unconstrained) of a uniform instance
// with procs processes of n tasks each and seeded per-task weights in
// [1, 10), the weight law of the served benchmark requests.
func qcqm1(t testing.TB, procs, n int) *cqm.Model {
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

// grid is the QCQM1 grid MaxVars is derived on: M = 2..5 processes ×
// n = 4, 10, 100 tasks. nodes is the node count of the proof under the
// default budget; rows over MaxVars are refused and carry none.
var grid = []struct {
	procs, tasks, vars int
	nodes              int64
}{
	{2, 4, 6, 27},
	{2, 10, 8, 99},
	{2, 100, 14, 3151},
	{3, 4, 18, 22289},
	{3, 10, 24, 545033},
	{3, 100, 42, 192643},
	{4, 4, 36, 4199123},
	{4, 10, 48, 0},
	{4, 100, 84, 0},
	{5, 4, 60, 0},
	{5, 10, 80, 0},
	{5, 100, 140, 0},
}

// TestPerfGateExactGrid is the committed derivation of MaxVars: every
// grid model up to MaxVars variables is proven by the Engine, with
// pinned node counts, and every larger one is refused before search.
// MaxVars must be the largest proven variable count; the boundary model
// just above it is shown unprovable in TestPerfGateExactBoundary.
func TestPerfGateExactGrid(t *testing.T) {
	largestProven := 0
	for _, row := range grid {
		m := qcqm1(t, row.procs, row.tasks)
		if m.NumVars() != row.vars {
			t.Fatalf("M=%d×%d: %d vars, want %d", row.procs, row.tasks, m.NumVars(), row.vars)
		}
		res, err := NewEngine().Solve(context.Background(), m)
		if row.vars > MaxVars {
			if !errors.Is(err, solve.ErrTooLarge) || res != nil {
				t.Fatalf("M=%d×%d (%d vars): got (%v, %v), want a refusal wrapping solve.ErrTooLarge",
					row.procs, row.tasks, row.vars, res, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("M=%d×%d: %v", row.procs, row.tasks, err)
		}
		if !res.Stats.Proven || res.Stats.Nodes != row.nodes {
			t.Fatalf("M=%d×%d (%d vars): proven=%v in %d nodes, want proven in %d",
				row.procs, row.tasks, row.vars, res.Stats.Proven, res.Stats.Nodes, row.nodes)
		}
		largestProven = max(largestProven, row.vars)
	}
	if largestProven != MaxVars {
		t.Fatalf("largest proven grid model has %d vars, MaxVars = %d", largestProven, MaxVars)
	}
}

// TestPerfGateExactBoundary shows why MaxVars stops at 42: the next
// grid model, M=4×10 with 48 variables, exhausts the default 50M-node
// budget of the library Solve without a proof. It explores the whole
// budget (about 3.4 s on a 2-vCPU VM), which the race detector slows
// about thirtyfold, so it runs only without -race.
func TestPerfGateExactBoundary(t *testing.T) {
	if raceEnabled {
		t.Skip("explores 50M nodes; too slow under the race detector")
	}
	m := qcqm1(t, 4, 10)
	if m.NumVars() != 48 || m.NumVars() <= MaxVars {
		t.Fatalf("boundary model has %d vars, want 48 > MaxVars", m.NumVars())
	}
	res, err := Solve(m, 0)
	if !errors.Is(err, ErrNodeBudget) || res.Nodes != 50_000_001 {
		t.Fatalf("got %d nodes, err %v; want the 50M budget exhausted unproven", res.Nodes, err)
	}
}

// TestPerfGateExactRefusal pins the served-size refusal: the M=16×100
// model of the solve-unique benchmark (1680 variables) is refused with
// solve.ErrTooLarge before any node is explored — no progress event, no
// solver stats recorded.
func TestPerfGateExactRefusal(t *testing.T) {
	m := qcqm1(t, 16, 100)
	if m.NumVars() != 1680 {
		t.Fatalf("M=16×100 model has %d vars, want 1680", m.NumVars())
	}
	reg := obs.NewRegistry()
	events := 0
	res, err := NewEngine().Solve(context.Background(), m,
		solve.WithObs(reg), solve.WithProgress(func(solve.Event) { events++ }))
	if !errors.Is(err, solve.ErrTooLarge) || res != nil {
		t.Fatalf("got (%v, %v), want a refusal wrapping solve.ErrTooLarge", res, err)
	}
	if events != 0 || reg.Counter("solver.exact.nodes").Value() != 0 || reg.Counter("solver.exact.solves").Value() != 0 {
		t.Fatalf("refusal explored nodes: %d progress events, %d nodes, %d solves",
			events, reg.Counter("solver.exact.nodes").Value(), reg.Counter("solver.exact.solves").Value())
	}
}
