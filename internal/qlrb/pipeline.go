package qlrb

import (
	"context"
	"fmt"

	"repro/internal/hybrid"
	"repro/internal/lrp"
	"repro/internal/obs"
	"repro/internal/solve"
	"repro/internal/verify"
)

// Pipeline is the staged quantum-hybrid solve path. Every way this
// repository turns an LRP instance into a verified migration plan — the
// monolithic qlrb.Solve, the hedged race (via Wrap/Solver), and the
// hierarchical sharded solver (internal/shard, one Pipeline per shard)
// — runs through these four stages, in order:
//
//	BuildStage   instance  -> Encoded CQM        ("qlrb.build" span)
//	SampleStage  Encoded   -> solve.Result       ("qlrb.solve" span)
//	DecodeStage  Result    -> repaired lrp.Plan  ("qlrb.decode" span)
//	VerifyStage  Plan      -> accepted/rejected  ("qlrb.verify" span)
//
// The stages are individually callable (a caller holding a prebuilt
// Encoded can start at SampleStage; a caller with an external sample
// can start at DecodeStage) and Run composes all four. Sharing one
// implementation is the point: warm starts, pair moves, repair,
// observability, and the mandatory trust-but-verify gate behave
// identically on every path, and a fix lands everywhere at once.
type Pipeline struct {
	// Build configures the CQM construction (formulation, migration
	// cap, reductions).
	Build BuildOptions
	// Hybrid configures the default sampling backend. Warm starts and
	// conservation pair moves are resolved into a copy per solve; the
	// caller's options are never mutated.
	Hybrid hybrid.Options
	// Solver, when non-nil, supplies the sampling backend for the
	// encoded model instead of hybrid.New(Hybrid) — the attachment
	// point for alternative backends (a hedged race over several
	// solvers, a sharded solver bound to the same encoding, a test
	// stub). The factory receives the built encoding so backends that
	// need decode metadata (e.g. internal/shard's solver adapter) can
	// bind to it.
	Solver func(*Encoded) solve.Solver
	// Wrap, when non-nil, decorates the solver built for this solve —
	// the attachment point for middleware (resilient.Policy.Wrap,
	// hedge wrapping, or any other solve.Solver decorator). It runs
	// after Solver.
	Wrap func(solve.Solver) solve.Solver
	// NoWarmStart disables seeding the sampler with the identity plan
	// (every task stays home), which is feasible for every K >= 0 and
	// is the natural warm start for a REbalancing problem.
	NoWarmStart bool
	// WarmPlans are additional warm starts, typically the plans of
	// classical algorithms — the paper runs the classical methods first
	// to guide the hybrid experiments. Plans exceeding the migration
	// cap are projected onto it before encoding; unencodable plans
	// (e.g. inflow into a pinned process) are skipped.
	WarmPlans []*lrp.Plan
	// Verify tunes the mandatory plan verification gate (zero value =
	// defaults: conservation, non-negativity and the migration budget;
	// set Verify.MaxLoad to additionally enforce the load cap).
	Verify verify.Options
	// Obs, when non-nil, receives the full workflow trace: one span per
	// stage plus every solver-internal counter (passed down via
	// solve.WithObs). Nil disables instrumentation.
	Obs *obs.Registry
	// Opts are extra solve options applied to the sample stage — the
	// carve-out point for per-shard budgets (solve.WithBudget), clocks,
	// and seed overrides.
	Opts []solve.Option
}

// BuildStage constructs the CQM for the instance ("qlrb.build" span).
func (p *Pipeline) BuildStage(in *lrp.Instance) (*Encoded, error) {
	span := p.Obs.StartSpan("qlrb.build")
	enc, err := Build(in, p.Build)
	if err != nil {
		span.Set("error", err.Error()).End()
		return nil, err
	}
	ms := enc.Model.Stats()
	span.Set("qubits", ms.Vars).Set("constraints", ms.Constraints).End()
	return enc, nil
}

// ReadsWarmPlans reports whether the sampler can read any entry of
// WarmPlans under the pipeline's own options. Only the default hybrid
// sampler reads warm starts, and only the prefix that
// hybrid.Options.InitialsRead names; the identity plan always comes
// first. A caller that computes WarmPlans on demand (internal/shard)
// skips the work when this is false.
func (p *Pipeline) ReadsWarmPlans() bool {
	if p.Solver != nil {
		return false
	}
	keep := p.warmKeep(solve.NewConfig(p.Opts...).Reads)
	return keep < 0 || keep > 1
}

// warmKeep returns how many encoded warm starts (identity included) the
// default sampler reads under the given solve.WithReads override, or
// -1 for all of them.
func (p *Pipeline) warmKeep(reads int) int {
	if p.NoWarmStart {
		return 0
	}
	n := p.Hybrid.InitialsRead(reads)
	if n < 0 {
		return -1
	}
	return max(0, n-len(p.Hybrid.Initials))
}

// warmStarts encodes the pipeline's warm-start plans (identity plus
// WarmPlans) into sample vectors for the encoding, stopping once keep
// are encoded (keep < 0: all). Plans over the migration cap are
// projected onto it first; plans the encoding cannot express are
// skipped.
func (p *Pipeline) warmStarts(enc *Encoded, keep int) [][]bool {
	in := enc.in
	candidates := append([]*lrp.Plan{lrp.NewPlan(in)}, p.WarmPlans...)
	var warm [][]bool
	for _, c := range candidates {
		if keep >= 0 && len(warm) >= keep {
			break
		}
		q := c.Clone()
		if p.Build.K >= 0 && q.Migrated() > p.Build.K {
			q.CapMigrations(in, p.Build.K)
		}
		if bits, err := enc.EncodePlan(q); err == nil {
			warm = append(warm, bits)
		}
	}
	return warm
}

// solver resolves the sampling backend for enc: warm starts and pair
// moves are folded into a copy of the hybrid options, the Solver
// factory (or hybrid.New) builds the backend, and Wrap decorates it.
// reads is the solve's solve.WithReads override (0 = none), which sets
// how many warm starts are worth encoding.
func (p *Pipeline) solver(enc *Encoded, reads int) solve.Solver {
	var s solve.Solver
	if p.Solver != nil {
		s = p.Solver(enc)
	} else {
		h := p.Hybrid // copy: the caller's options are never mutated
		h.Initials = append(append([][]bool(nil), h.Initials...), p.warmStarts(enc, p.warmKeep(reads))...)
		// PairProb == 0 means "default": enable conservation-preserving
		// pair moves where the formulation needs them. A negative value
		// disables pair moves explicitly (used by the tuning ablation).
		if pairs := enc.ConservationPairs(); len(pairs) > 0 && h.PairProb == 0 {
			h.Pairs = pairs
			h.PairProb = 0.4
		}
		if h.PairProb < 0 {
			h.Pairs = nil
			h.PairProb = 0
		}
		s = hybrid.New(h)
	}
	if p.Wrap != nil {
		s = p.Wrap(s)
	}
	return s
}

// SampleStage runs the sampling backend on the encoded model
// ("qlrb.solve" span) under the pipeline's solve options plus any
// extras (per-call budgets, seeds).
func (p *Pipeline) SampleStage(ctx context.Context, enc *Encoded, extra ...solve.Option) (*solve.Result, error) {
	opts := make([]solve.Option, 0, len(p.Opts)+len(extra)+1)
	opts = append(opts, solve.WithObs(p.Obs))
	opts = append(opts, p.Opts...)
	opts = append(opts, extra...)
	s := p.solver(enc, solve.NewConfig(opts...).Reads)
	span := p.Obs.StartSpan("qlrb.solve")
	res, err := s.Solve(ctx, enc.Model, opts...)
	if err != nil {
		span.Set("error", err.Error()).End()
		return nil, err
	}
	span.Set("solver", s.Name()).Set("objective", res.Objective).
		Set("feasible", res.Feasible).End()
	return res, nil
}

// DecodeStage decodes the result's best sample into a feasible plan
// ("qlrb.decode" span), repairing conservation and the migration cap
// when the raw sample violates them.
func (p *Pipeline) DecodeStage(enc *Encoded, res *solve.Result) (plan *lrp.Plan, repaired bool, err error) {
	span := p.Obs.StartSpan("qlrb.decode")
	plan, repaired, err = enc.DecodeRepaired(res.Sample)
	if err != nil {
		span.Set("error", err.Error()).End()
		return nil, false, err
	}
	span.Set("repaired", repaired).End()
	if repaired {
		p.Obs.Counter("qlrb.repairs").Inc()
	}
	return plan, repaired, nil
}

// VerifyStage is the mandatory trust-but-verify gate ("qlrb.verify"
// span): the decoded (and possibly repaired) plan is re-checked from
// scratch against the instance and migration budget by the independent
// verifier before it leaves the pipeline. Decode/Repair are supposed to
// guarantee this — the gate is what turns "supposed to" into "checked
// on every solve". A rejection is an error wrapping verify.ErrRejected.
func (p *Pipeline) VerifyStage(in *lrp.Instance, plan *lrp.Plan) error {
	span := p.Obs.StartSpan("qlrb.verify")
	rep := verify.Plan(in, plan, p.Build.K, p.Verify)
	span.Set("ok", rep.Ok()).Set("checks", rep.Checks).End()
	if !rep.Ok() {
		p.Obs.Counter("qlrb.rejected_plans").Inc()
		p.Obs.Emit("qlrb.reject", map[string]any{"violation": rep.Violations[0].String()})
		return fmt.Errorf("qlrb: decoded plan failed verification: %w", rep.Err())
	}
	return nil
}

// Run composes the four stages end to end: build the CQM, sample it,
// decode the best sample into a repaired plan, and verify the plan
// against the instance. Cancelling ctx stops the sample stage at the
// next sweep boundary; the best sample collected so far is still
// decoded (Stats.Solver.Interrupted reports the cut).
func (p *Pipeline) Run(ctx context.Context, in *lrp.Instance) (*lrp.Plan, SolveStats, error) {
	enc, err := p.BuildStage(in)
	if err != nil {
		return nil, SolveStats{}, err
	}
	res, err := p.SampleStage(ctx, enc)
	if err != nil {
		return nil, SolveStats{}, err
	}
	plan, repaired, err := p.DecodeStage(enc, res)
	if err != nil {
		return nil, SolveStats{}, err
	}
	if err := p.VerifyStage(in, plan); err != nil {
		return nil, SolveStats{}, err
	}
	ms := enc.Model.Stats()
	stats := SolveStats{
		Qubits:          ms.Vars,
		Constraints:     ms.Constraints,
		EqConstraints:   ms.EqConstraints,
		IneqConstraints: ms.IneqConstraints,
		SampleFeasible:  res.Feasible,
		Repaired:        repaired,
		Objective:       res.Objective,
		Solver:          res.Stats,
	}
	return plan, stats, nil
}
