package exact

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/cqm"
	"repro/internal/solve"
)

// MaxVars is the largest model, in binary variables, the Engine
// serves: the range in which branch and bound proves optimality within
// the default node budget. Engine.Solve refuses larger models before
// any search with an error wrapping solve.ErrTooLarge, the way
// quantum.MaxQubits bounds the gate simulator.
//
// The bound is derived on the paper's QCQM1 grid (M = 2..5 processes ×
// n = 4, 10, 100 tasks each, K unconstrained; TestPerfGateExactGrid):
// every model up to 42 variables is proven (the largest, M=3×100, in
// 193k nodes; the hardest, M=4×4 with 36 variables, in 4.2M), while
// the 48-variable M=4×10 model exhausts the 50M-node budget unproven,
// and beyond that the search only returns an interrupted incumbent.
// A served M=16×100 model has 1680 variables; searching it to a
// deadline yields the identity plan, so refusing it lets a router fail
// over to a heuristic in microseconds instead. The library Solve keeps
// no such limit: ground-truth tests may spend any budget they like.
const MaxVars = 42

// Engine adapts the branch-and-bound solver to the solve.Solver
// interface. Models over MaxVars variables are refused. Cancellation
// and deadlines are polled during node expansion; an interrupted search
// returns the incumbent with Stats.Interrupted set instead of an error.
// A search that completes within its budgets sets Stats.Proven.
type Engine struct {
	// MaxNodes bounds the search (0 = the package default). Exhausting
	// it is reported as an interruption, like a deadline.
	MaxNodes int64
}

// NewEngine returns an exact engine with the default node budget.
func NewEngine() *Engine { return &Engine{} }

// Name implements solve.Solver.
func (e *Engine) Name() string { return "exact" }

// Solve implements solve.Solver.
func (e *Engine) Solve(ctx context.Context, m *cqm.Model, opts ...solve.Option) (*solve.Result, error) {
	if m == nil {
		return nil, errors.New("exact: nil model")
	}
	if n := m.NumVars(); n > MaxVars {
		return nil, fmt.Errorf("exact: %w: %d vars > MaxVars %d", solve.ErrTooLarge, n, MaxVars)
	}
	cfg := solve.NewConfig(opts...)
	stop := cfg.NewStop(ctx)
	start := cfg.Clock.Now()

	var progress func(nodes int64, best float64, feasible bool)
	if p := solve.SerialProgress(cfg.Progress); p != nil {
		progress = func(nodes int64, best float64, feasible bool) {
			p(solve.Event{Nodes: nodes, BestObjective: best, Feasible: feasible})
		}
	}
	r, err := solveWith(m, e.MaxNodes, stop.Func(), progress)
	outOfBudget := errors.Is(err, ErrNodeBudget)
	if err != nil && !outOfBudget {
		return nil, err
	}

	res := &solve.Result{
		Sample:    r.Best,
		Objective: r.Objective,
		Feasible:  r.Feasible,
		Stats: solve.Stats{
			Wall:             cfg.Clock.Since(start),
			Nodes:            r.Nodes,
			BoundPrunes:      r.BoundPrunes,
			InfeasiblePrunes: r.InfeasiblePrunes,
			Interrupted:      r.Interrupted || outOfBudget || stop.Interrupted(),
		},
	}
	res.Stats.Proven = !res.Stats.Interrupted
	if !r.Feasible && math.IsInf(r.Objective, 1) && r.Best == nil {
		// No incumbent: return an explicit empty (all-false) assignment
		// so the sample is still a complete, decodable state.
		res.Sample = make([]bool, m.NumVars())
		res.Objective = m.Objective(res.Sample)
	}
	cfg.Observe(e.Name(), res.Stats)
	return res, nil
}
