package quantum

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cqm"
	"repro/internal/solve"
)

// Diagnostics carries the gate-path quality metrics that have no slot in
// the shared solve.Stats shape; Engine records them for its most recent
// Solve.
type Diagnostics struct {
	// Qubits is the simulated register width (QUBO variables incl.
	// slacks, if any).
	Qubits int
	// Layers is the QAOA depth used.
	Layers int
	// Expectation is the optimized cost expectation.
	Expectation float64
	// ApproxRatio and GroundProbability are quality diagnostics of the
	// sampled state (see SampleResult).
	ApproxRatio       float64
	GroundProbability float64
}

// Engine adapts the simulated gate-model (QAOA) path to the
// solve.Solver interface: CQM -> QUBO (penalty folding) -> QAOA
// parameter search -> measurement -> feasibility filter. Cancellation
// stops the variational parameter search at its next optimizer step and
// skips the circuit for unevaluated grid cells; measurement of the best
// parameters found so far still runs, so an interrupted solve returns a
// usable (if lower-quality) sample with Stats.Interrupted set.
//
// Only models whose QUBO fits the state-vector simulator (MaxQubits)
// are solvable; larger models are refused before any simulation with
// an error wrapping solve.ErrTooLarge.
type Engine struct {
	// Layers is the circuit depth p (0 = 2).
	Layers int
	// Shots is the number of measurement samples (0 = 512); overridden
	// by solve.WithReads.
	Shots int
	// QUBO controls the constraint folding; the zero value selects
	// unbalanced penalization, which adds no slack qubits.
	QUBO cqm.QUBOOptions
	// Optimize tunes the classical parameter search.
	Optimize OptimizeOptions
	// Last holds the diagnostics of the most recent Solve. It is not
	// synchronized: share one Engine per goroutine.
	Last Diagnostics
}

// NewEngine returns a gate-path engine with library defaults.
func NewEngine() *Engine { return &Engine{} }

// Name implements solve.Solver.
func (e *Engine) Name() string { return "quantum" }

// tooLarge is the refusal of a model needing n > MaxQubits qubits.
func tooLarge(n int) error {
	return fmt.Errorf("quantum: %w: model needs %d qubits, gate simulator supports %d",
		solve.ErrTooLarge, n, MaxQubits)
}

// Solve implements solve.Solver.
func (e *Engine) Solve(ctx context.Context, m *cqm.Model, opts ...solve.Option) (*solve.Result, error) {
	if m == nil {
		return nil, errors.New("quantum: nil model")
	}
	// The QUBO has at least the CQM's variables (slacks only add), so
	// an oversize model is refused before the conversion.
	if n := m.NumVars(); n > MaxQubits {
		return nil, tooLarge(n)
	}
	cfg := solve.NewConfig(opts...)
	stop := cfg.NewStop(ctx)
	start := cfg.Clock.Now()

	layers := e.Layers
	if layers <= 0 {
		layers = 2
	}
	shots := e.Shots
	if cfg.Reads > 0 {
		shots = cfg.Reads
	}
	if shots <= 0 {
		shots = 512
	}
	qopt := e.QUBO
	if qopt.EqPenalty == 0 {
		qopt = cqm.QUBOOptions{
			Method:       cqm.UnbalancedPenalty,
			EqPenalty:    20,
			UnbalancedL1: 1,
			UnbalancedL2: 20,
		}
	}

	qubo, err := cqm.ToQUBO(m, qopt)
	if err != nil {
		return nil, fmt.Errorf("quantum: QUBO conversion: %w", err)
	}
	if qubo.NumVars > MaxQubits {
		return nil, tooLarge(qubo.NumVars)
	}
	qa, err := NewQAOA(qubo, layers)
	if err != nil {
		return nil, err
	}
	oopt := e.Optimize
	if oopt.Stop == nil {
		oopt.Stop = stop.Func()
	}
	progress := solve.SerialProgress(cfg.Progress)
	params, err := qa.Optimize(oopt)
	if err != nil {
		return nil, err
	}
	if progress != nil {
		progress(solve.Event{Sweep: params.Evals, BestObjective: params.F})
	}
	state, err := qa.Evolve(params.X)
	if err != nil {
		return nil, err
	}

	e.Last = Diagnostics{Qubits: qubo.NumVars, Layers: layers, Expectation: params.F}

	// Feasibility filter over the shots: prefer the lowest-QUBO-energy
	// sample whose base assignment satisfies the original CQM.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var bestFeas, bestAny []bool
	bestFeasE, bestAnyE := 0.0, 0.0
	for _, z := range state.Sample(rng, shots) {
		bits := Bits(z, qubo.NumVars)
		energy := qubo.Energy(bits)
		base := bits[:qubo.BaseVars]
		if bestAny == nil || energy < bestAnyE {
			bestAny, bestAnyE = base, energy
		}
		if m.Feasible(base, 1e-6) && (bestFeas == nil || energy < bestFeasE) {
			bestFeas, bestFeasE = base, energy
		}
	}
	sample := bestAny
	feasible := false
	if bestFeas != nil {
		sample, feasible = bestFeas, true
	}
	if sr, err := qa.Sample(params.X, 1, rng); err == nil {
		e.Last.GroundProbability = sr.GroundProbability
		if sr.ApproxRatio >= 0 {
			e.Last.ApproxRatio = sr.ApproxRatio
		}
	}
	if sample == nil {
		sample = make([]bool, m.NumVars())
	}

	res := &solve.Result{
		Sample:    sample,
		Objective: m.Objective(sample),
		Feasible:  feasible && !math.IsNaN(bestFeasE),
		Stats: solve.Stats{
			Wall:        cfg.Clock.Since(start),
			Reads:       shots,
			Evals:       params.Evals,
			Interrupted: stop.Interrupted(),
		},
	}
	if feasible {
		res.Stats.FeasibleReads = 1
	}
	if progress != nil {
		progress(solve.Event{Sweep: params.Evals, BestObjective: res.Objective, Feasible: res.Feasible})
	}
	cfg.Observe(e.Name(), res.Stats)
	return res, nil
}
