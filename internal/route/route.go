// Package route is the failure-aware backend-routing layer of the
// serving path: a load-factor-weighted balancer over the repository's
// solver backends (sa, tabu, exact, hybrid, quantum — anything
// implementing solve.Solver), in the spirit of client-side weighted
// round-robin cluster balancers. Each backend is a weighted endpoint;
// the weight is continuously recomputed from what the router actually
// observes — per-solve latency, errors, recovered panics, and
// verification rejects — plus the external health signals the rest of
// the stack already produces (hedge.Tallies mirrored into internal/obs,
// and the resilient circuit breaker's state).
//
// Design rules:
//
//   - Trust nothing: every backend runs behind solve.Protected and every
//     reply is re-checked by internal/verify before it counts as a
//     success. A corrupted backend is a failing backend.
//   - Share worker time, not picks: a backend's health gives it a share
//     of worker time, and its pick share is that time share divided by
//     its measured cost relative to the fastest backend. A backend 20×
//     slower than the fastest is picked 20× less often for the same
//     time share, so a slow backend cannot take half the workers by
//     being picked for a twentieth of the requests.
//   - Degrade, don't ban: a floor share of worker time guarantees every
//     backend keeps receiving a trickle of probe traffic, so a
//     recovered (or sped-up) backend earns its share back instead of
//     being starved forever. Failure history is an EWMA, not a
//     cumulative tally, for the same reason.
//   - Fail over: a solve that fails on the picked backend is retried on
//     the next-weighted one (each backend at most once per solve) before
//     the router gives up.
//   - One source of truth: the router publishes its per-backend tallies
//     and current weights into the obs registry ("route.backend.<name>.*"),
//     the same registry /metrics renders — what the operator sees is what
//     the router acts on.
package route

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cqm"
	"repro/internal/obs"
	"repro/internal/resilient"
	"repro/internal/solve"
	"repro/internal/verify"
)

// ErrNoBackends marks a router constructed without backends.
var ErrNoBackends = errors.New("route: no backends")

// ErrAllFailed marks a solve that failed on every backend the failover
// budget allowed. Match with errors.Is; the error joins the per-backend
// causes.
var ErrAllFailed = errors.New("route: all routed backends failed")

// ErrTooLarge marks a model rejected by a size guard before the backend
// searched: a Gated wrapper's limit, or a backend's own stated range
// (exact.MaxVars, quantum.MaxQubits). It is the same value as
// solve.ErrTooLarge. It is a routing failure (the backend's weight
// drops toward the floor), not a caller error: other backends can still
// serve the solve.
var ErrTooLarge = solve.ErrTooLarge

// Defaults of Options.
const (
	// DefaultFloor is the minimum share of worker time every backend
	// keeps receiving as probes, however degraded it looks. A backend
	// no slower than the fastest one gets about that share of picks; a
	// backend k times slower gets about 1/k of it.
	DefaultFloor = 0.05
	// DefaultAlpha is the EWMA step for failure-rate and latency
	// estimates: one observation moves the estimate 25% of the way.
	DefaultAlpha = 0.25
)

// breakerHolder is the optional interface a resilient-wrapped backend
// exposes; the router uses it to read circuit-breaker state directly
// (an open breaker pins the backend to its floor weight).
type breakerHolder interface{ Policy() *resilient.Policy }

// Options tunes a Router.
type Options struct {
	// Floor is the minimum share of worker time per backend, before
	// the conversion to pick shares (DefaultFloor when 0; values are
	// clamped to [0, 1/len(backends)]).
	Floor float64
	// Alpha is the EWMA step for the failure-rate and latency estimates
	// (DefaultAlpha when 0).
	Alpha float64
	// Failover caps how many distinct backends one Solve may try
	// (default: all of them; 1 disables failover).
	Failover int
	// Verify tunes the independent verification every routed reply must
	// pass before it counts as a success.
	Verify verify.Options
	// Obs, when non-nil, receives the router's per-backend tallies and
	// weights in addition to any per-solve registry: weights are
	// published after every recompute, so /metrics always shows the
	// live routing table. The router also reads hedge.backend.<name>.*
	// counters from it — tallies a hedged race recorded against the
	// same backend names feed the routing weights.
	Obs *obs.Registry
	// Name overrides the solver name ("route" when empty).
	Name string
}

// endpoint is one backend plus its routing state.
type endpoint struct {
	name   string
	solver solve.Solver // Protected
	raw    solve.Solver // as registered (breaker introspection)

	// EWMA estimates, guarded by the router mutex.
	failEWMA float64 // in [0,1]: 0 = always verified-ok, 1 = always failing
	latEWMA  float64 // milliseconds, successes only; 0 = none yet
	weight   float64 // last computed normalized weight
	current  float64 // smooth weighted round-robin accumulator

	// Cumulative tallies (reporting).
	picks, ok, errs, rejects, panics int64

	// Last-seen hedge counter values (delta tracking for Sync), indexed
	// like hedgeTallies.
	hedgeSeen [len(hedgeTallies)]int64

	names metricNames
}

// outcome classifies one routed attempt.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeReject
	outcomeError
	outcomePanic
	numOutcomes
)

// outcomeNames are the metric suffixes of the outcomes.
var outcomeNames = [numOutcomes]string{"ok", "reject", "error", "panic"}

// hedgeTallies are the per-backend counters a hedged race mirrors into
// the shared registry, and whether each one counts as a failure.
var hedgeTallies = [...]struct {
	metric string
	bad    bool
}{
	{"wins", false}, {"rejects", true}, {"errors", true}, {"panics", true},
}

// metricNames holds every obs metric name an endpoint publishes or
// reads, built once in New so routing concatenates no strings.
type metricNames struct {
	weight, failEWMA, latEWMA string // gauges
	picks                     string // counter
	outcome                   [numOutcomes]string
	latency                   string // histogram
	hedge                     [len(hedgeTallies)]string
}

func newMetricNames(backend string) metricNames {
	p := "route.backend." + backend + "."
	n := metricNames{
		weight: p + "weight", failEWMA: p + "fail_ewma", latEWMA: p + "latency_ewma_ms",
		picks: p + "picks", latency: p + "latency_ms",
	}
	for i, o := range outcomeNames {
		n.outcome[i] = p + o
	}
	for i, h := range hedgeTallies {
		n.hedge[i] = "hedge.backend." + backend + "." + h.metric
	}
	return n
}

// Tally is one backend's cumulative routing record, plus its live
// weight and health estimates.
type Tally struct {
	// Backend is the backend's Name().
	Backend string
	// Picks counts solves routed to the backend (failover attempts
	// included).
	Picks int64
	// OK counts verified successful solves.
	OK int64
	// Errors counts failed attempts (panics included).
	Errors int64
	// Rejects counts replies discarded by independent verification.
	Rejects int64
	// Panics counts recovered panics (a subset of Errors).
	Panics int64
	// FailRate is the current failure-rate EWMA in [0, 1].
	FailRate float64
	// LatencyMs is the current latency EWMA of verified successes in
	// milliseconds (0 before the first success).
	LatencyMs float64
	// Weight is the backend's current normalized routing weight: its
	// expected share of picks (its share of worker time divided by its
	// relative cost, renormalized).
	Weight float64
}

// Router is a weighted, failure-aware balancer over solver backends.
// It implements solve.Solver, so it drops into any pipeline slot a
// single backend fits (qlrb.Pipeline.Solver, dlb, the serve layer).
// Safe for concurrent use.
type Router struct {
	opt Options

	mu    sync.Mutex
	eps   []*endpoint
	picks int64
	// Recompute scratch, one slot per endpoint: raw health weights and
	// relative costs c_b.
	raws, costs []float64
}

// New builds a router over the given backends. Backend names must be
// unique (they key the obs metrics and the external tally sync). Every
// backend is wrapped in solve.Protected: a panicking backend loses
// weight instead of crashing the process.
func New(opt Options, backends ...solve.Solver) (*Router, error) {
	if len(backends) == 0 {
		return nil, ErrNoBackends
	}
	if opt.Floor <= 0 {
		opt.Floor = DefaultFloor
	}
	if max := 1 / float64(len(backends)); opt.Floor > max {
		opt.Floor = max
	}
	if opt.Alpha <= 0 || opt.Alpha > 1 {
		opt.Alpha = DefaultAlpha
	}
	if opt.Failover <= 0 || opt.Failover > len(backends) {
		opt.Failover = len(backends)
	}
	if opt.Name == "" {
		opt.Name = "route"
	}
	r := &Router{
		opt:   opt,
		raws:  make([]float64, len(backends)),
		costs: make([]float64, len(backends)),
	}
	seen := make(map[string]bool, len(backends))
	for i, b := range backends {
		if b == nil {
			return nil, fmt.Errorf("route: backend %d is nil", i)
		}
		name := b.Name()
		if seen[name] {
			return nil, fmt.Errorf("route: duplicate backend name %q", name)
		}
		seen[name] = true
		r.eps = append(r.eps, &endpoint{
			name:   name,
			solver: solve.Protected(b),
			raw:    b,
			weight: 1 / float64(len(backends)),
			names:  newMetricNames(name),
		})
	}
	return r, nil
}

// Name implements solve.Solver.
func (r *Router) Name() string { return r.opt.Name }

// Tallies returns a snapshot of every backend's routing record, in
// registration order.
func (r *Router) Tallies() []Tally {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recomputeLocked()
	out := make([]Tally, len(r.eps))
	for i, e := range r.eps {
		out[i] = Tally{
			Backend: e.name, Picks: e.picks, OK: e.ok, Errors: e.errs,
			Rejects: e.rejects, Panics: e.panics,
			FailRate: e.failEWMA, LatencyMs: e.latEWMA, Weight: e.weight,
		}
	}
	return out
}

// Weights returns the current normalized weight per backend name.
func (r *Router) Weights() map[string]float64 {
	out := make(map[string]float64)
	for _, t := range r.Tallies() {
		out[t.Backend] = t.Weight
	}
	return out
}

// breakerOpen reports whether the endpoint's backend sits behind an
// open resilient circuit breaker right now.
func breakerOpen(e *endpoint) bool {
	h, ok := e.raw.(breakerHolder)
	if !ok {
		return false
	}
	p := h.Policy()
	return p != nil && p.Breaker().State() == resilient.Open
}

// syncExternalLocked folds tallies other layers recorded against the
// same backend names into the failure EWMAs. The hedged solver mirrors
// its per-backend race record into the obs registry as
// "hedge.backend.<name>.{wins,rejects,errors,panics}" counters; the
// router treats each new win as a success observation and each new
// reject/error/panic as a failure observation, so a backend that only
// ever loses hedged races arrives at the router pre-downweighted. The
// counters are looked up, never created: a registry without a hedge
// shows no hedge metrics.
func (r *Router) syncExternalLocked() {
	reg := r.opt.Obs
	if reg == nil {
		return
	}
	for _, e := range r.eps {
		var good, bad int64
		for i, h := range hedgeTallies {
			v := reg.LookupCounter(e.names.hedge[i]).Value()
			d := v - e.hedgeSeen[i]
			e.hedgeSeen[i] = v
			if d <= 0 {
				continue
			}
			if h.bad {
				bad += d
			} else {
				good += d
			}
		}
		if good+bad == 0 {
			continue
		}
		// One batched EWMA step toward the batch's failure fraction,
		// with strength proportional to the batch size (capped at a
		// full step so a flood cannot overshoot).
		target := float64(bad) / float64(good+bad)
		step := r.opt.Alpha * float64(good+bad)
		if step > 1 {
			step = 1
		}
		e.failEWMA += step * (target - e.failEWMA)
	}
}

// latencyEpsilonMs deadbands the latency factor: latencies are compared
// after adding this epsilon, so sub-millisecond jitter between equally
// fast backends does not move weights, while a genuinely slow backend
// (tens of ms against ms) is still penalized proportionally.
const latencyEpsilonMs = 1.0

// recomputeLocked refreshes every endpoint's normalized weight in two
// steps: health sets each backend's share of worker time, and measured
// cost turns that into its share of picks.
//
//	ref    = fastest latency EWMA
//	c_b    = min(1, (ref+ε)/(lat_b+ε))   (1 while b has no latency estimate)
//	raw_b  = (1 - fail_b) * c_b          (0 while b's circuit breaker is open)
//	s_b    = max(Floor, raw_b / Σ raw)   b's share of worker time
//	w_b    = s_b * c_b, renormalized     b's share of picks
//
// A pick of b costs about (lat_b+ε)/(ref+ε) = 1/c_b times a pick of the
// fastest backend, so w_b/c_b, and hence s_b, is b's share of busy
// time. Without the second step a slow healthy backend's picks times
// its cost would equal the fastest backend's, and every healthy backend
// would take the same share of the workers however slow it is. A
// failing or slow backend decays toward the floor, an open breaker pins
// to it, and the floor keeps probe traffic flowing to everyone.
func (r *Router) recomputeLocked() {
	r.syncExternalLocked()
	ref := 0.0
	for _, e := range r.eps {
		if e.latEWMA > 0 && (ref == 0 || e.latEWMA < ref) {
			ref = e.latEWMA
		}
	}
	sum := 0.0
	for i, e := range r.eps {
		c := 1.0
		if ref > 0 && e.latEWMA > ref {
			c = (ref + latencyEpsilonMs) / (e.latEWMA + latencyEpsilonMs)
		}
		raw := max(0, 1-e.failEWMA) * c
		if breakerOpen(e) {
			raw = 0
		}
		r.costs[i] = c
		r.raws[i] = raw
		sum += raw
	}
	if sum <= 0 {
		// Everything looks dead: route uniformly (pure probing).
		for _, e := range r.eps {
			e.weight = 1 / float64(len(r.eps))
		}
	} else {
		// s_b needs no renormalizing of its own: the pick shares are
		// renormalized once, and scaling every s_b by one factor does
		// not change them.
		total := 0.0
		for i, e := range r.eps {
			e.weight = max(r.opt.Floor, r.raws[i]/sum) * r.costs[i]
			total += e.weight
		}
		for _, e := range r.eps {
			e.weight /= total
		}
	}
	for _, e := range r.eps {
		r.opt.Obs.Gauge(e.names.weight).Set(e.weight)
		r.opt.Obs.Gauge(e.names.failEWMA).Set(e.failEWMA)
		r.opt.Obs.Gauge(e.names.latEWMA).Set(e.latEWMA)
	}
}

// pick selects the next endpoint by smooth weighted round-robin over
// the current weights, skipping endpoints in tried. The smooth variant
// spreads picks evenly through time (no bursts to one backend), and is
// deterministic — tests can pin exact shares.
func (r *Router) pick(tried map[*endpoint]bool) *endpoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recomputeLocked()
	var best *endpoint
	total := 0.0
	for _, e := range r.eps {
		if tried[e] {
			continue
		}
		e.current += e.weight
		total += e.weight
		if best == nil || e.current > best.current {
			best = e
		}
	}
	if best == nil {
		return nil
	}
	best.current -= total
	best.picks++
	r.picks++
	return best
}

// observe records one routed attempt's outcome into the endpoint's
// EWMAs, tallies, and the obs registries (the router's own and the
// per-solve one, when different). Only verified successes feed the
// latency EWMA: a failure's latency says nothing about how fast the
// backend serves, and a backend that refuses in microseconds would
// otherwise become the latency reference that scales every other
// backend's weight down.
func (r *Router) observe(e *endpoint, lat time.Duration, o outcome, solveObs *obs.Registry) {
	ms := float64(lat) / float64(time.Millisecond)
	r.mu.Lock()
	a := r.opt.Alpha
	fail := 1.0
	switch o {
	case outcomeOK:
		fail = 0
		e.ok++
		if e.latEWMA == 0 {
			e.latEWMA = ms
		} else {
			e.latEWMA += a * (ms - e.latEWMA)
		}
	case outcomeReject:
		e.rejects++
	case outcomePanic:
		e.panics++
		e.errs++
	default: // outcomeError
		e.errs++
	}
	e.failEWMA += a * (fail - e.failEWMA)
	r.mu.Unlock()

	for _, reg := range []*obs.Registry{r.opt.Obs, solveObs} {
		if reg == nil {
			continue
		}
		reg.Counter(e.names.picks).Inc()
		reg.Counter(e.names.outcome[o]).Inc()
		reg.Histogram(e.names.latency).Observe(ms)
		if solveObs == r.opt.Obs {
			break // same registry passed twice: record once
		}
	}
}

// Solve implements solve.Solver: pick the highest-credit backend, run
// it behind panic isolation, verify the reply independently, and fail
// over to the next backend (up to Options.Failover distinct ones) on
// error, panic, or verification reject. A verified-but-infeasible
// reply is honest work — it is returned (downstream repair/decode
// handles infeasibility), and counts as a success for routing.
func (r *Router) Solve(ctx context.Context, m *cqm.Model, opts ...solve.Option) (*solve.Result, error) {
	if m == nil {
		return nil, errors.New("route: nil model")
	}
	cfg := solve.NewConfig(opts...)
	clk := cfg.Clock
	tried := make(map[*endpoint]bool, r.opt.Failover)
	var causes []error
	for len(tried) < r.opt.Failover {
		if ctx != nil && ctx.Err() != nil {
			causes = append(causes, ctx.Err())
			break
		}
		e := r.pick(tried)
		if e == nil {
			break
		}
		tried[e] = true
		start := clk.Now()
		res, err := e.solver.Solve(ctx, m, opts...)
		lat := clk.Since(start)
		if err != nil {
			o := outcomeError
			if errors.Is(err, solve.ErrPanic) {
				o = outcomePanic
			}
			r.observe(e, lat, o, cfg.Obs)
			causes = append(causes, fmt.Errorf("%s: %w", e.name, err))
			continue
		}
		if rep := verify.Sample(m, res, r.opt.Verify); !rep.Ok() {
			r.observe(e, lat, outcomeReject, cfg.Obs)
			if cfg.Obs != nil {
				cfg.Obs.Emit("route.reject", map[string]any{
					"backend": e.name, "violation": rep.Violations[0].String(),
				})
			}
			causes = append(causes, fmt.Errorf("%s: %w", e.name, rep.Err()))
			continue
		}
		r.observe(e, lat, outcomeOK, cfg.Obs)
		return res, nil
	}
	return nil, fmt.Errorf("%w: %w", ErrAllFailed, errors.Join(causes...))
}

// gated is the Solver wrapper produced by Gated.
type gated struct {
	inner   solve.Solver
	maxVars int
}

// Gated bounds the model size a backend accepts: models with more than
// maxVars binary variables are rejected with ErrTooLarge before the
// inner solver runs. It gives a backend without a stated range one
// (exact and quantum refuse out-of-range models themselves) — behind a
// router, an out-of-range model simply fails over to another backend
// and the gated endpoint's weight decays for that traffic mix, while
// small models keep reaching it.
func Gated(inner solve.Solver, maxVars int) solve.Solver {
	return &gated{inner: inner, maxVars: maxVars}
}

// Name implements solve.Solver, delegating to the wrapped backend.
func (g *gated) Name() string { return g.inner.Name() }

// Solve implements solve.Solver.
func (g *gated) Solve(ctx context.Context, m *cqm.Model, opts ...solve.Option) (*solve.Result, error) {
	if m != nil && g.maxVars > 0 && m.NumVars() > g.maxVars {
		return nil, fmt.Errorf("%w: %d vars > limit %d (%s)", ErrTooLarge, m.NumVars(), g.maxVars, g.inner.Name())
	}
	return g.inner.Solve(ctx, m, opts...)
}

// serialized is the Solver wrapper produced by Serialized.
type serialized struct {
	mu    sync.Mutex
	inner solve.Solver
}

// Serialized guards a backend that is not safe for concurrent use
// (e.g. quantum.Engine, which records per-solve diagnostics on itself)
// with a mutex, so it can sit behind a router serving concurrent
// workers.
func Serialized(inner solve.Solver) solve.Solver {
	return &serialized{inner: inner}
}

// Name implements solve.Solver, delegating to the wrapped backend.
func (s *serialized) Name() string { return s.inner.Name() }

// Solve implements solve.Solver.
func (s *serialized) Solve(ctx context.Context, m *cqm.Model, opts ...solve.Option) (*solve.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Solve(ctx, m, opts...)
}
