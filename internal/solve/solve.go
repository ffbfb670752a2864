// Package solve is the common engine layer shared by every solver
// backend in this repository (sa, tabu, exact, quantum, hybrid). It
// defines the Solver interface a request-serving layer can multiplex —
// context-aware, deadline-respecting, clock-injectable — plus the shared
// Result/Stats shape and a Progress hook for metrics and tracing.
//
// Design rules every backend follows:
//
//   - Solve never blocks past cancellation: ctx cancellation and
//     clock-based deadlines are polled at natural loop boundaries
//     (sweeps, tabu iterations, branch-and-bound node expansions, QAOA
//     optimizer steps, portfolio branches).
//   - Cancellation is not an error: an interrupted solve returns the
//     best partial result found so far with Stats.Interrupted = true,
//     never an invalid sample. Errors are reserved for malformed input
//     and for models outside a backend's stated range (ErrTooLarge).
//   - Time is injected: backends read the Clock from the config instead
//     of calling time.Now directly, so timing-sensitive behaviour (stats,
//     deadlines) is fully deterministic under the fake clock in tests.
package solve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cqm"
	"repro/internal/obs"
)

// ErrTooLarge marks a model a backend refuses, before any search,
// because it lies outside the range the backend can serve: more qubits
// than the gate simulator holds (quantum.MaxQubits), more variables
// than branch and bound can prove (exact.MaxVars), or more than a
// route.Gated guard admits. Match with errors.Is. Behind a router it is
// a routing failure — the solve fails over to another backend — not a
// caller error.
var ErrTooLarge = errors.New("solve: model exceeds backend size limit")

// Solver is the common interface of every solver backend. Solve runs
// until completion, ctx cancellation, or the configured deadline/budget,
// whichever comes first, and returns the best assignment found.
//
// Implementations must honour the cancellation contract: an interrupted
// solve still returns its best partial result (Stats.Interrupted = true)
// rather than an error, and the returned sample is always a complete
// assignment over the model's variables (feasibility is reported, not
// guaranteed).
type Solver interface {
	// Name labels the backend in logs and result tables.
	Name() string
	// Solve runs the backend on m under the given options.
	Solve(ctx context.Context, m *cqm.Model, opts ...Option) (*Result, error)
}

// Result is the shared outcome shape of every backend.
type Result struct {
	// Sample is the best assignment found (feasible when Feasible).
	Sample []bool
	// Objective is the model objective of Sample.
	Objective float64
	// Feasible reports whether Sample satisfies every constraint.
	Feasible bool
	// Stats describes the work performed.
	Stats Stats
}

// Stats describes the work a solve performed. It is a union shape: each
// backend fills the counters that apply to it and leaves the rest zero.
type Stats struct {
	// Wall is the solver time measured on the injected Clock.
	Wall time.Duration
	// SimulatedCPU is Wall plus the simulated cloud overhead (hybrid
	// backend; the paper's "CPU" runtime column).
	SimulatedCPU time.Duration
	// SimulatedQPU is the simulated quantum-processor access time
	// (hybrid backend; the paper's "QPU" column).
	SimulatedQPU time.Duration
	// Reads is the number of portfolio branches / restarts executed.
	Reads int
	// FeasibleReads counts branches whose best sample was feasible.
	FeasibleReads int
	// PresolveFixed counts variables fixed by classical presolve.
	PresolveFixed int
	// Sweeps counts annealing sweeps (or tabu iterations) performed.
	Sweeps int
	// Flips counts proposed moves across branches.
	Flips int64
	// Accepted counts accepted moves.
	Accepted int64
	// Nodes counts branch-and-bound nodes (exact backend).
	Nodes int64
	// BoundPrunes counts subtrees cut by the objective bound (exact
	// backend).
	BoundPrunes int64
	// InfeasiblePrunes counts subtrees cut by constraint propagation
	// (exact backend).
	InfeasiblePrunes int64
	// PenaltyRescales counts constraint-penalty growth events (sa-based
	// backends).
	PenaltyRescales int
	// TemperingSwaps counts accepted replica exchanges (parallel
	// tempering in the hybrid backend).
	TemperingSwaps int64
	// Evals counts objective/circuit evaluations (quantum backend).
	Evals int
	// Attempts counts cloud solve attempts made by the resilient
	// wrapper (internal/resilient), including the successful one.
	Attempts int
	// Retries counts re-submissions after a failed attempt (Attempts-1
	// when the solve eventually succeeded on the cloud path).
	Retries int
	// Fallbacks is 1 when the result was served by the classical
	// fallback solver after the cloud path was exhausted or the circuit
	// breaker was open.
	Fallbacks int
	// BreakerSkips counts attempts skipped because the circuit breaker
	// was open.
	BreakerSkips int
	// Panics counts solver panics recovered by the isolation layer
	// (Protected / the hedge and resilient wrappers).
	Panics int
	// Hedged counts hedge backends launched beyond the primary
	// (internal/hedge).
	Hedged int
	// HedgeRejects counts hedge-race candidates discarded because they
	// failed independent verification (internal/hedge).
	HedgeRejects int
	// Interrupted reports that the solve stopped early on cancellation,
	// deadline, or budget exhaustion; the result is the best found so
	// far.
	Interrupted bool
	// Proven reports that the result was proven optimal (exact backend
	// completing its search).
	Proven bool
}

// Event is one progress notification. Backends emit events at their
// natural cadence (per sweep, per restart, per node batch); the hook is
// the attachment point for metrics, tracing, and cooperative pacing in
// tests (a fake clock can be advanced from the hook).
type Event struct {
	// Restart is the portfolio branch / restart index (0-based).
	Restart int
	// Sweep is the sweep or iteration count within the restart.
	Sweep int
	// Nodes is the explored node count (exact backend).
	Nodes int64
	// BestObjective is the best objective seen so far in this branch.
	BestObjective float64
	// Feasible reports whether that best assignment is feasible.
	Feasible bool
}

// Progress receives solve events. Hooks must be fast and are called
// from solver goroutines; engines serialize invocations, so a hook
// never runs concurrently with itself.
type Progress func(Event)

// Config is the resolved generic solver configuration. Backend-specific
// knobs (penalties, schedules, circuit depth, ...) live on the backend
// engines; Config carries only what the engine layer owns.
type Config struct {
	// Seed drives the run's RNGs; meaningful only when HasSeed is set
	// (0 is a valid seed).
	Seed    int64
	HasSeed bool
	// Reads overrides the backend's portfolio width when > 0.
	Reads int
	// Sweeps overrides the backend's per-read budget when > 0.
	Sweeps int
	// Workers caps solver concurrency when > 0.
	Workers int
	// Budget bounds solver time relative to the clock's now (0 = none).
	Budget time.Duration
	// Deadline bounds solver time absolutely (zero = none).
	Deadline time.Time
	// Clock is the time source (never nil after NewConfig).
	Clock Clock
	// Progress, when non-nil, receives solve events.
	Progress Progress
	// Obs, when non-nil, is the metrics registry every backend emits
	// into (see Observe); nil disables observability at zero cost.
	Obs *obs.Registry
}

// Option mutates a Config; see the With* constructors.
type Option func(*Config)

// NewConfig resolves opts over defaults (real clock, no deadline).
func NewConfig(opts ...Option) Config {
	cfg := Config{Clock: Real()}
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	if cfg.Clock == nil {
		cfg.Clock = Real()
	}
	return cfg
}

// WithSeed fixes the run's random seed.
func WithSeed(seed int64) Option {
	return func(c *Config) { c.Seed, c.HasSeed = seed, true }
}

// WithReads sets the portfolio width (restarts / replicas / shots scale,
// backend-dependent).
func WithReads(n int) Option { return func(c *Config) { c.Reads = n } }

// WithSweeps sets the per-read sweep or iteration budget.
func WithSweeps(n int) Option { return func(c *Config) { c.Sweeps = n } }

// WithWorkers caps solver concurrency.
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithBudget bounds solver time relative to the clock's now.
func WithBudget(d time.Duration) Option { return func(c *Config) { c.Budget = d } }

// WithDeadline bounds solver time absolutely (measured on the Clock).
func WithDeadline(t time.Time) Option { return func(c *Config) { c.Deadline = t } }

// WithClock injects the time source (use NewFake in tests).
func WithClock(cl Clock) Option { return func(c *Config) { c.Clock = cl } }

// WithProgress attaches a progress hook.
func WithProgress(p Progress) Option { return func(c *Config) { c.Progress = p } }

// WithObs attaches the metrics registry the solve reports into.
func WithObs(r *obs.Registry) Option { return func(c *Config) { c.Obs = r } }

// Observe records a completed solve's stats into the config's obs
// registry under "solver.<name>.*": one counter per non-zero work
// counter, a wall-time histogram, and an acceptance-rate gauge. Every
// backend calls it once per Solve; with a nil registry it is free.
func (cfg Config) Observe(name string, st Stats) {
	r := cfg.Obs
	if r == nil {
		return
	}
	p := "solver." + name + "."
	r.Counter(p + "solves").Inc()
	add := func(metric string, v int64) {
		if v != 0 {
			r.Counter(p + metric).Add(v)
		}
	}
	add("reads", int64(st.Reads))
	add("feasible_reads", int64(st.FeasibleReads))
	add("presolve_fixed", int64(st.PresolveFixed))
	add("sweeps", int64(st.Sweeps))
	add("flips", st.Flips)
	add("accepted", st.Accepted)
	add("nodes", st.Nodes)
	add("bound_prunes", st.BoundPrunes)
	add("infeasible_prunes", st.InfeasiblePrunes)
	add("penalty_rescales", int64(st.PenaltyRescales))
	add("tempering_swaps", st.TemperingSwaps)
	add("evals", int64(st.Evals))
	add("attempts", int64(st.Attempts))
	add("retries", int64(st.Retries))
	add("fallbacks", int64(st.Fallbacks))
	add("breaker_skips", int64(st.BreakerSkips))
	add("panics", int64(st.Panics))
	add("hedged", int64(st.Hedged))
	add("hedge_rejects", int64(st.HedgeRejects))
	if st.Interrupted {
		r.Counter(p + "interrupted").Inc()
	}
	if st.Proven {
		r.Counter(p + "proven").Inc()
	}
	r.Histogram(p + "wall_ms").Observe(float64(st.Wall) / float64(time.Millisecond))
	if st.Flips > 0 {
		r.Gauge(p + "acceptance_rate").Set(float64(st.Accepted) / float64(st.Flips))
	}
}

// Stop coalesces context cancellation and the clock-based
// deadline/budget into one polled predicate. It is safe for concurrent
// use by portfolio goroutines, and latches: once stopped, always
// stopped.
type Stop struct {
	done     <-chan struct{}
	clock    Clock
	deadline time.Time
	tripped  atomic.Bool
}

// NewStop derives the solve's stop condition from ctx and the config's
// deadline/budget. A nil receiver is valid and never stops.
func (cfg Config) NewStop(ctx context.Context) *Stop {
	s := &Stop{clock: cfg.Clock}
	if ctx != nil {
		s.done = ctx.Done()
	}
	s.deadline = cfg.Deadline
	if cfg.Budget > 0 {
		b := cfg.Clock.Now().Add(cfg.Budget)
		if s.deadline.IsZero() || b.Before(s.deadline) {
			s.deadline = b
		}
	}
	return s
}

// Stopped reports whether the solve should wind down now. Backends poll
// it at loop boundaries.
func (s *Stop) Stopped() bool {
	if s == nil {
		return false
	}
	if s.tripped.Load() {
		return true
	}
	select {
	case <-s.done:
		s.tripped.Store(true)
		return true
	default:
	}
	if !s.deadline.IsZero() && !s.clock.Now().Before(s.deadline) {
		s.tripped.Store(true)
		return true
	}
	return false
}

// Interrupted reports whether the stop ever tripped — the value engines
// put into Stats.Interrupted.
func (s *Stop) Interrupted() bool { return s != nil && s.tripped.Load() }

// Func returns the predicate in the shape backend option structs carry
// (nil for a nil Stop, so "no stop" costs nothing in hot loops).
func (s *Stop) Func() func() bool {
	if s == nil {
		return nil
	}
	return s.Stopped
}

// SerialProgress wraps a Progress hook with a mutex so concurrent
// portfolio branches can share it, per the Progress contract. A nil hook
// yields nil.
func SerialProgress(p Progress) Progress {
	if p == nil {
		return nil
	}
	var mu sync.Mutex
	return func(e Event) {
		mu.Lock()
		defer mu.Unlock()
		p(e)
	}
}
