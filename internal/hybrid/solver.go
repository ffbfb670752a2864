// Package hybrid implements a hybrid classical-quantum solver workflow
// modelled on D-Wave's Leap hybrid CQM solver, which the paper uses to
// solve its LRP formulations. Since no quantum hardware is available in
// this environment, the quantum sampling stage is substituted by the
// simulated-annealing engine (internal/sa) — see DESIGN.md for why this
// preserves the behaviour the paper evaluates.
//
// The workflow mirrors the hybrid solver pipeline:
//
//  1. classical presolve (bound-based variable fixing),
//  2. a portfolio of annealing trajectories (multi-restart or parallel
//     tempering) run concurrently on a goroutine pool, optionally
//     joined by deterministic tabu trajectories,
//  3. feasibility filtering and best-feasible selection.
//
// A timing model accounts simulated cloud latency and QPU access time so
// the experiments can report the CPU/QPU runtime split of Table V without
// actually sleeping.
package hybrid

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cqm"
	"repro/internal/faults"
	"repro/internal/sa"
	"repro/internal/solve"
	"repro/internal/tabu"
	"repro/internal/verify"
)

// Options configures a hybrid solve.
type Options struct {
	// Reads is the number of independent annealing trajectories
	// (restarts); the best feasible sample across reads is returned.
	Reads int
	// TabuReads adds deterministic tabu-search trajectories to the
	// portfolio (cloud hybrid solvers run exactly such heterogeneous
	// heuristic portfolios).
	TabuReads int
	// Sweeps is the annealing sweep budget per read.
	Sweeps int
	// Workers bounds solver concurrency (0 = GOMAXPROCS).
	Workers int
	// Seed makes the solve reproducible.
	Seed int64
	// Presolve enables the classical variable-fixing pass.
	Presolve bool
	// Tempering switches the sampling stage from independent restarts
	// to parallel tempering (better mixing on large rugged models).
	Tempering bool
	// Penalty and PenaltyGrowth tune constraint handling (see sa.Options).
	Penalty       float64
	PenaltyGrowth float64
	// Initial is an optional warm-start assignment (e.g. the encoding of
	// a known-feasible plan); alternate reads start from it, mirroring
	// the classical warm start of cloud hybrid solvers.
	Initial []bool
	// Initials are additional warm starts distributed across reads.
	Initials [][]bool
	// Pairs and PairProb enable equality-preserving pair moves in the
	// sampler (see sa.Options).
	Pairs    [][2]cqm.VarID
	PairProb float64
	// Timing is the simulated cloud/QPU timing model.
	Timing TimingModel
	// Faults, when non-nil, is consulted once per Solve call: the
	// simulated cloud path surfaces the injected fault — a transport
	// error (transient/timeout/throttle) instead of a result, or a
	// corrupted sample on an otherwise clean solve. A nil hook models a
	// perfectly reliable cloud. Pair with internal/resilient to recover.
	Faults faults.Hook
}

// InitialsRead returns how many leading entries of Initials a solve
// with these options reads, given the solve.WithReads override (0 =
// none), or -1 when every entry may be read. Even annealing read r and
// even tabu read r start from Initials[(r/2) % len(Initials)], so with
// R = max(Reads, TabuReads) only the first ceil(R/2) entries are ever
// indexed: dropping the rest leaves every read's start unchanged. A set
// Initial is appended after Initials, so then no prefix is safe.
func (o Options) InitialsRead(reads int) int {
	if o.Initial != nil {
		return -1
	}
	if reads <= 0 {
		reads = o.Reads
	}
	if reads <= 0 {
		reads = DefaultOptions().Reads
	}
	return (max(reads, o.TabuReads) + 1) / 2
}

// DefaultOptions returns settings that solve the paper's LRP models
// reliably.
func DefaultOptions() Options {
	return Options{
		Reads:         8,
		Sweeps:        600,
		Presolve:      true,
		Penalty:       1,
		PenaltyGrowth: 4,
		Timing:        DefaultTimingModel(),
	}
}

// Engine runs the hybrid workflow behind the solve.Solver interface.
// Cancellation and deadlines stop every portfolio member at its next
// sweep (or tabu iteration) boundary and skip members not yet started;
// the best sample collected so far is still selected and returned with
// Stats.Interrupted set — an interrupted solve never returns an error.
type Engine struct {
	// Base holds the problem-independent configuration. Seed, Reads,
	// Sweeps and Workers act as defaults that the per-solve options
	// (solve.WithSeed etc.) override.
	Base Options
}

// New returns an engine with the given base configuration; zero fields
// fall back to DefaultOptions at solve time.
func New(opt Options) *Engine { return &Engine{Base: opt} }

// NewEngine returns an engine with the library defaults.
func NewEngine() *Engine { return New(DefaultOptions()) }

// Name implements solve.Solver.
func (e *Engine) Name() string { return "hybrid" }

// Solve implements solve.Solver.
func (e *Engine) Solve(ctx context.Context, m *cqm.Model, opts ...solve.Option) (*solve.Result, error) {
	if m == nil {
		return nil, errors.New("hybrid: nil model")
	}
	cfg := solve.NewConfig(opts...)
	stop := cfg.NewStop(ctx)
	start := cfg.Clock.Now()

	opt := e.Base
	if cfg.HasSeed {
		opt.Seed = cfg.Seed
	}
	if cfg.Reads > 0 {
		opt.Reads = cfg.Reads
	}
	if cfg.Sweeps > 0 {
		opt.Sweeps = cfg.Sweeps
	}
	if cfg.Workers > 0 {
		opt.Workers = cfg.Workers
	}
	if opt.Reads <= 0 {
		opt.Reads = DefaultOptions().Reads
	}
	if opt.Sweeps <= 0 {
		opt.Sweeps = DefaultOptions().Sweeps
	}
	if opt.Penalty <= 0 {
		opt.Penalty = 1
	}
	progress := solve.SerialProgress(cfg.Progress)

	// Fault injection point: the simulated cloud decides this attempt's
	// fate before any sampling happens. Transport faults surface as
	// errors (the one case where Solve errors on well-formed input, by
	// design — they model the network, not the solver); a Corrupt fault
	// damages the returned sample after the solve below.
	var fault faults.Fault
	if opt.Faults != nil {
		fault = opt.Faults.Next()
		if ferr := fault.Kind.Err(); ferr != nil {
			if fault.Delay > 0 {
				// A timeout burns simulated time before surfacing.
				if cerr := cfg.Clock.Sleep(ctx, fault.Delay); cerr != nil {
					return nil, fmt.Errorf("hybrid: job %d: %w", fault.Seq, cerr)
				}
			}
			return nil, fmt.Errorf("hybrid: job %d: %w", fault.Seq, ferr)
		}
		if fault.Kind == faults.Panic {
			// A crashing worker takes the goroutine down mid-solve; only
			// the isolation layer (solve.Protected, as used by the hedge
			// and resilient wrappers) keeps it from taking the process.
			panic(fmt.Sprintf("hybrid: job %d: injected solver crash", fault.Seq))
		}
	}

	var frozen map[cqm.VarID]bool
	if opt.Presolve {
		sp := cfg.Obs.StartSpan("hybrid.presolve")
		fixed, err := cqm.Presolve(m)
		if err == nil {
			frozen = fixed
		}
		// A presolve infeasibility proof still lets the sampler run;
		// the result will simply be reported infeasible.
		sp.Set("fixed", len(frozen)).End()
	}

	base := sa.Options{
		Sweeps:        opt.Sweeps,
		Penalty:       opt.Penalty,
		PenaltyGrowth: opt.PenaltyGrowth,
		Seed:          opt.Seed,
		Frozen:        frozen,
		Initial:       opt.Initial,
		Pairs:         opt.Pairs,
		PairProb:      opt.PairProb,
		Stop:          stop.Func(),
	}

	var best sa.Result
	var all []sa.Result
	portfolioSpan := cfg.Obs.StartSpan("hybrid.portfolio")
	portfolioSpan.Set("reads", opt.Reads).Set("tempering", opt.Tempering)
	if opt.Tempering {
		if progress != nil {
			base.Progress = func(sweep int, bestObj float64, feas bool) {
				progress(solve.Event{Sweep: sweep, BestObjective: bestObj, Feasible: feas})
			}
		}
		best = sa.ParallelTempering(m, sa.PTOptions{Base: base, Replicas: max(2, opt.Reads)})
		all = []sa.Result{best}
	} else {
		popt := sa.PortfolioOptions{
			Base:     base,
			Restarts: opt.Reads,
			Workers:  opt.Workers,
			Initials: opt.Initials,
		}
		if progress != nil {
			popt.Progress = func(restart, sweep int, bestObj float64, feas bool) {
				progress(solve.Event{Restart: restart, Sweep: sweep, BestObjective: bestObj, Feasible: feas})
			}
		}
		best, all = sa.Portfolio(m, popt)
	}
	portfolioSpan.End()
	// Tabu members of the portfolio: one per TabuRead, alternating
	// between the provided warm starts and random initial states. Reads
	// not yet started when the solve is interrupted are skipped.
	initials := opt.Initials
	if opt.Initial != nil {
		initials = append(append([][]bool(nil), initials...), opt.Initial)
	}
	for r := 0; r < opt.TabuReads && !stop.Stopped(); r++ {
		topt := tabu.Options{
			Penalty: opt.Penalty * 16, // final-scale penalties: tabu has no growth phase
			Seed:    opt.Seed*524_287 + int64(r),
			Frozen:  frozen,
			Stop:    stop.Func(),
		}
		if len(initials) > 0 && r%2 == 0 {
			topt.Initial = initials[(r/2)%len(initials)]
		}
		if progress != nil {
			restart := opt.Reads + r
			topt.Progress = func(iter int, bestObj float64, feas bool) {
				progress(solve.Event{Restart: restart, Sweep: iter, BestObjective: bestObj, Feasible: feas})
			}
		}
		tr := tabu.Search(m, topt)
		conv := sa.Result{Best: tr.Best, BestObjective: tr.BestObjective, BestFeasible: tr.BestFeasible, Flips: tr.Moves}
		all = append(all, conv)
		if sa.Better(conv, best) {
			best = conv
		}
	}
	wall := cfg.Clock.Since(start)

	res := &solve.Result{
		Sample:    best.Best,
		Objective: best.BestObjective,
		Feasible:  best.BestFeasible,
		Stats: solve.Stats{
			Wall:          wall,
			SimulatedCPU:  wall + opt.Timing.CloudOverhead(),
			SimulatedQPU:  opt.Timing.QPUAccess,
			Reads:         len(all),
			PresolveFixed: len(frozen),
			Interrupted:   stop.Interrupted(),
		},
	}
	for _, r := range all {
		res.Stats.Sweeps += r.Sweeps
		res.Stats.Flips += r.Flips
		res.Stats.Accepted += r.Accepted
		res.Stats.PenaltyRescales += r.PenaltyRescales
		res.Stats.TemperingSwaps += r.Swaps
		if r.BestFeasible {
			res.Stats.FeasibleReads++
		}
	}
	// Attest the reply before it leaves the engine: objective and
	// feasibility are recomputed from the sample itself, so an
	// incremental-evaluator drift or selection bug can never ship
	// metadata the sample does not back. Adjustments are counted — a
	// non-zero rate is an engine bug worth investigating.
	if verify.Attest(m, res, verify.Options{}) && cfg.Obs != nil {
		cfg.Obs.Counter("solver.hybrid.attest_fixes").Inc()
	}
	if fault.Kind == faults.Corrupt {
		// Corruption happens after attestation, on a copy: the reported
		// objective/feasibility intentionally keep their pre-corruption
		// values. The damage is exactly that the reply no longer matches
		// its own metadata, which is what independent verification
		// (internal/verify, resilient's validation, the hedge race)
		// detects downstream.
		res.Sample = append([]bool(nil), res.Sample...)
		fault.CorruptSample(res.Sample)
	}
	cfg.Observe(e.Name(), res.Stats)
	return res, nil
}
