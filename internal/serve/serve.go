// Package serve is the rebalancing-as-a-service layer: a long-running,
// multi-tenant solve server over the repository's solve → verify →
// route stack. Where everything below this package answers one
// invocation, serve answers traffic — and traffic brings the
// production concerns this package owns:
//
//   - Bounded admission: a fixed-depth job queue that rejects with a
//     typed ErrOverload when full instead of queuing unboundedly, so
//     memory and latency stay bounded under any load.
//   - Tenant isolation: per-tenant token-bucket rate limits and
//     cumulative solve-time budgets, both measured on the injected
//     solve.Clock, so one noisy tenant cannot starve the rest and the
//     schedules are deterministic under the fake clock in tests.
//   - Deadlines end to end: every request carries a solve budget that
//     becomes a clock deadline on the solver and a context deadline on
//     the pipeline; a job that expires while still queued fails with a
//     typed context.DeadlineExceeded instead of running late for
//     nobody.
//   - Graceful drain: on shutdown the server finishes in-flight
//     solves, rejects queued and new work with typed errors, and
//     flushes its observability state — the contract a scheduler's
//     SIGTERM expects.
//
// Every served plan passes the mandatory verify.Plan gate inside
// qlrb.Pipeline before it is stored on the job; the server never hands
// out an unverified plan.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/lrp"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/qlrb"
	"repro/internal/solve"
	"repro/internal/verify"
)

// Typed admission errors. ErrOverload is the base class of every
// load-shedding rejection (queue, rate, budget), so one errors.Is
// check maps them all to HTTP 429; the more specific sentinels
// distinguish the cause.
var (
	// ErrOverload marks a request rejected to shed load; the specific
	// rejections below all wrap it.
	ErrOverload = errors.New("serve: overloaded")
	// ErrQueueFull marks a request rejected because the job queue was
	// at capacity.
	ErrQueueFull = fmt.Errorf("%w: job queue full", ErrOverload)
	// ErrRateLimited marks a request rejected by the tenant's token
	// bucket.
	ErrRateLimited = fmt.Errorf("%w: tenant rate limit exceeded", ErrOverload)
	// ErrBudgetExhausted marks a request rejected because the tenant's
	// cumulative solve budget is spent.
	ErrBudgetExhausted = fmt.Errorf("%w: tenant solve budget exhausted", ErrOverload)
	// ErrDraining marks a request rejected because the server is
	// shutting down.
	ErrDraining = errors.New("serve: draining, not accepting work")
	// ErrUnknownJob marks a job lookup for an id the server does not
	// hold (never existed, or evicted by retention).
	ErrUnknownJob = errors.New("serve: unknown job")
	// ErrEvicted marks a lookup of a job that did exist but was dropped
	// by retention — HTTP 410 Gone, where a never-issued id stays 404.
	// It wraps ErrUnknownJob so existing errors.Is checks keep matching.
	ErrEvicted = fmt.Errorf("%w: evicted by retention", ErrUnknownJob)
)

// Status is a job's lifecycle state.
type Status string

const (
	// StatusQueued: admitted, waiting for a worker.
	StatusQueued Status = "queued"
	// StatusRunning: a worker is solving it.
	StatusRunning Status = "running"
	// StatusDone: solved; Plan and Metrics are set and verified.
	StatusDone Status = "done"
	// StatusFailed: the solve errored or the deadline expired.
	StatusFailed Status = "failed"
	// StatusRejected: dropped unstarted by a drain.
	StatusRejected Status = "rejected"
)

// Metrics is the solved job's result summary (the paper's evaluation
// metrics plus solver accounting).
type Metrics struct {
	ImbalanceBefore float64 `json:"imbalance_before"`
	ImbalanceAfter  float64 `json:"imbalance_after"`
	Speedup         float64 `json:"speedup"`
	Migrated        int     `json:"migrated"`
	Objective       float64 `json:"objective"`
	Qubits          int     `json:"qubits"`
	SampleFeasible  bool    `json:"sample_feasible"`
	Repaired        bool    `json:"repaired"`
	WallMs          float64 `json:"wall_ms"`
	// CacheHit marks a plan served from the verified plan cache: no
	// solver ran, but the plan still passed verify.Plan on the way out.
	CacheHit bool `json:"cache_hit,omitempty"`
}

// Job is a snapshot of one submitted solve. Snapshots are copies; the
// server's internal state cannot be mutated through them.
type Job struct {
	ID      string   `json:"id"`
	Tenant  string   `json:"tenant"`
	Status  Status   `json:"status"`
	Procs   int      `json:"procs"`
	Plan    [][]int  `json:"plan,omitempty"`
	Metrics *Metrics `json:"metrics,omitempty"`
	Error   string   `json:"error,omitempty"`
	// QueueWaitMs and the deadline are measured on the injected clock.
	QueueWaitMs float64 `json:"queue_wait_ms,omitempty"`
	// Recovered marks a job that survived a daemon restart: it was
	// rebuilt from the journal, either restored (terminal) or
	// re-enqueued (it was queued or running when the process died).
	Recovered bool `json:"recovered,omitempty"`
}

// job is the server-internal mutable record behind a Job snapshot.
type job struct {
	id     string
	tenant string
	req    *Request
	in     *lrp.Instance

	submitted time.Time
	deadline  time.Time
	budget    time.Duration
	recovered bool

	done chan struct{} // closed on any terminal status

	mu      sync.Mutex
	status  Status
	started time.Time
	plan    *lrp.Plan
	metrics *Metrics
	err     error
}

// snapshot renders the job for callers.
func (j *job) snapshot() *Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := &Job{
		ID: j.id, Tenant: j.tenant, Status: j.status, Procs: j.in.NumProcs(),
		Recovered: j.recovered,
	}
	if j.metrics != nil {
		m := *j.metrics
		out.Metrics = &m
	}
	if j.plan != nil {
		out.Plan = make([][]int, len(j.plan.X))
		for i, row := range j.plan.X {
			out.Plan[i] = append([]int(nil), row...)
		}
	}
	if j.err != nil {
		out.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		out.QueueWaitMs = float64(j.started.Sub(j.submitted)) / float64(time.Millisecond)
	}
	return out
}

// Options configures a Server.
type Options struct {
	// QueueDepth bounds the number of admitted-but-unstarted jobs
	// (default 64). A full queue rejects with ErrQueueFull.
	QueueDepth int
	// Workers is the solve concurrency (default 2).
	Workers int
	// Rate is the per-tenant token-bucket refill in requests/second
	// (default 10; <= 0 after defaulting disables rate limiting).
	Rate float64
	// Burst is the bucket capacity (default 2×Rate, minimum 1).
	Burst float64
	// NoRateLimit disables the token bucket entirely.
	NoRateLimit bool
	// TenantBudget caps a tenant's cumulative solver wall time on the
	// injected clock (0 = unlimited). A tenant over budget is rejected
	// with ErrBudgetExhausted until the operator restarts or raises it.
	TenantBudget time.Duration
	// DefaultBudget is the per-request solve budget when the request
	// does not set one (default 2s).
	DefaultBudget time.Duration
	// MaxBudget caps any requested budget (default 10s).
	MaxBudget time.Duration
	// Limits bounds what a request may ask for (see DecodeRequest).
	Limits Limits
	// MaxJobs bounds the retained job records (default 1024); the
	// oldest finished jobs are evicted first. Lookups of evicted jobs
	// return ErrUnknownJob.
	MaxJobs int
	// Backend is the solver serving every request — typically a
	// route.Router over several engines (required).
	Backend solve.Solver
	// Cache, when non-nil, short-circuits solves whose canonical
	// instance fingerprint holds a verified plan (keyed by form and
	// migration budget); hits still pass verify.Plan before being
	// served, and the plan of every clean miss is stored back. Nil
	// disables caching.
	Cache *plancache.Cache
	// Verify tunes the mandatory plan-verification gate.
	Verify verify.Options
	// Journal, when non-nil, receives one record per job-lifecycle
	// transition (see journal.go). A *wal.Log satisfies it; when the
	// value also implements Compactor the server snapshot-compacts the
	// journal after terminal transitions. Journal failures are counted
	// (serve.journal_errors), never surfaced.
	Journal Journal
	// Recover is the set of journal records replayed from a previous
	// process (typically the second return of wal.Open). New rebuilds
	// job history from them and re-enqueues unfinished work before the
	// first worker starts.
	Recover [][]byte
	// Clock is the time source for admission, budgets, and deadlines
	// (default solve.Real()).
	Clock solve.Clock
	// Obs receives the server's metrics and the full per-solve traces
	// (default: a fresh registry; never nil so /metrics always works).
	Obs *obs.Registry
}

func (o Options) withDefaults() (Options, error) {
	if o.Backend == nil {
		return o, errors.New("serve: Options.Backend is required")
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Rate <= 0 {
		o.Rate = 10
	}
	if o.Burst <= 0 {
		o.Burst = 2 * o.Rate
	}
	if o.Burst < 1 {
		o.Burst = 1
	}
	if o.DefaultBudget <= 0 {
		o.DefaultBudget = 2 * time.Second
	}
	if o.MaxBudget <= 0 {
		o.MaxBudget = 10 * time.Second
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 1024
	}
	o.Limits = o.Limits.withDefaults()
	if o.Clock == nil {
		o.Clock = solve.Real()
	}
	if o.Obs == nil {
		o.Obs = obs.NewRegistry()
	}
	return o, nil
}

// tenant is one tenant's admission state.
type tenant struct {
	tokens float64
	last   time.Time
	used   time.Duration // cumulative solver wall time
}

// Server is the multi-tenant solve server. Construct with New; stop
// with Drain. All methods are safe for concurrent use.
type Server struct {
	opt   Options
	clock solve.Clock
	obs   *obs.Registry

	baseCtx    context.Context
	cancelBase context.CancelFunc

	queue chan *job
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool
	// drainStarted closes the moment Drain flips the server into
	// draining — the channel-signaled readiness tests (and any caller
	// sequencing work against the drain barrier) wait on, instead of
	// polling Draining() on real time.
	drainStarted chan struct{}
	tenants      map[string]*tenant
	jobs         map[string]*job
	order        []string // insertion order, for retention eviction
	evicted      map[string]struct{}
	evictOrder   []string // eviction order, to bound the evicted set
	nextID       int64
	inflight     int
}

// New starts a server with opt.Workers solve workers. When
// opt.Recover holds replayed journal records, the pre-crash state is
// rebuilt first — terminal jobs restored, unfinished jobs re-enqueued
// with fresh deadlines — before the first worker starts, so recovered
// work cannot race fresh submissions for queue space.
func New(opt Options) (*Server, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opt:        opt,
		clock:      opt.Clock,
		obs:        opt.Obs,
		baseCtx:    ctx,
		cancelBase: cancel,
		tenants:    make(map[string]*tenant),
		jobs:       make(map[string]*job),
		evicted:    make(map[string]struct{}),

		drainStarted: make(chan struct{}),
	}
	var requeue []*job
	if len(opt.Recover) > 0 {
		requeue = s.recover(opt.Recover)
	}
	// The queue is sized to hold every recovered job on top of the
	// configured depth: recovery must never be the thing that overflows
	// admission.
	s.queue = make(chan *job, opt.QueueDepth+len(requeue))
	for _, j := range requeue {
		s.queue <- j
	}
	s.obs.Gauge("serve.queue_depth").Set(float64(len(s.queue)))
	for i := 0; i < opt.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Obs returns the server's metrics registry (for /metrics rendering
// and test assertions).
func (s *Server) Obs() *obs.Registry { return s.obs }

// DrainStarted returns a channel that closes when Drain begins —
// admission is rejecting by the time it fires.
func (s *Server) DrainStarted() <-chan struct{} { return s.drainStarted }

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Health is the /healthz payload.
type Health struct {
	Status   string `json:"status"` // "ok" | "draining"
	Queued   int    `json:"queued"`
	Inflight int    `json:"inflight"`
	Jobs     int    `json:"jobs"`
}

// Health snapshots the server's liveness state.
func (s *Server) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := Health{Status: "ok", Queued: len(s.queue), Inflight: s.inflight, Jobs: len(s.jobs)}
	if s.draining {
		h.Status = "draining"
	}
	return h
}

// admitTenant applies the token bucket and budget under s.mu.
func (s *Server) admitTenantLocked(name string, now time.Time) error {
	t := s.tenants[name]
	if t == nil {
		t = &tenant{tokens: s.opt.Burst, last: now}
		s.tenants[name] = t
	}
	if s.opt.TenantBudget > 0 && t.used >= s.opt.TenantBudget {
		return ErrBudgetExhausted
	}
	if s.opt.NoRateLimit {
		return nil
	}
	// Refill on the injected clock; deterministic under solve.Fake.
	if el := now.Sub(t.last); el > 0 {
		t.tokens = math.Min(s.opt.Burst, t.tokens+el.Seconds()*s.opt.Rate)
		t.last = now
	}
	if t.tokens < 1 {
		return ErrRateLimited
	}
	t.tokens--
	return nil
}

// Submit validates and admits a request, returning the queued job's
// snapshot. Rejections are typed: ErrQueueFull / ErrRateLimited /
// ErrBudgetExhausted (all errors.Is ErrOverload, HTTP 429) and
// ErrDraining (HTTP 503); validation failures are plain errors (HTTP
// 400).
func (s *Server) Submit(req *Request) (*Job, error) {
	if req == nil {
		return nil, errors.New("serve: nil request")
	}
	if err := req.Validate(s.opt.Limits); err != nil {
		return nil, err
	}
	in, budget, err := s.buildInstance(req)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	now := s.clock.Now()
	s.obs.Counter("serve.submitted").Inc()
	if s.draining {
		s.mu.Unlock()
		s.obs.Counter("serve.rejected_draining").Inc()
		return nil, ErrDraining
	}
	if err := s.admitTenantLocked(req.Tenant, now); err != nil {
		s.mu.Unlock()
		switch {
		case errors.Is(err, ErrBudgetExhausted):
			s.obs.Counter("serve.rejected_budget").Inc()
		default:
			s.obs.Counter("serve.rejected_rate").Inc()
		}
		return nil, err
	}
	s.nextID++
	j := &job{
		id:        fmt.Sprintf("j%08d", s.nextID),
		tenant:    req.Tenant,
		req:       req,
		in:        in,
		submitted: now,
		deadline:  now.Add(budget),
		budget:    budget,
		done:      make(chan struct{}),
		status:    StatusQueued,
	}
	// The accept record is journaled before the job is visible to any
	// worker, so a crash can never leave a terminal record without its
	// accept. The append runs under s.mu: admission order and journal
	// order are the same order.
	s.journal(journalRecord{
		Op: opAccept, ID: j.id, Req: req,
		BudgetMs: int64(budget / time.Millisecond),
	})
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		// The accept is already durable; a terminal record keeps replay
		// from resurrecting a job the client was told we shed.
		s.journal(journalRecord{Op: opReject, ID: j.id, Err: ErrQueueFull.Error()})
		s.obs.Counter("serve.rejected_overload").Inc()
		return nil, ErrQueueFull
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	s.obs.Counter("serve.accepted").Inc()
	s.obs.Gauge("serve.queue_depth").Set(float64(len(s.queue)))
	s.mu.Unlock()
	return j.snapshot(), nil
}

// buildInstance turns a validated request into its LRP instance and
// clamped solve budget — the one construction path shared by live
// submission and journal recovery.
func (s *Server) buildInstance(req *Request) (*lrp.Instance, time.Duration, error) {
	weights := req.Weights
	if len(weights) == 0 {
		weights = make([]float64, len(req.Tasks))
		for j := range weights {
			weights[j] = 1
		}
	}
	in, err := lrp.NewInstance(req.Tasks, weights)
	if err != nil {
		return nil, 0, err
	}
	budget := s.opt.DefaultBudget
	if req.BudgetMs > 0 {
		budget = time.Duration(req.BudgetMs) * time.Millisecond
	}
	if budget > s.opt.MaxBudget {
		budget = s.opt.MaxBudget
	}
	return in, budget, nil
}

// evictLocked drops the oldest finished jobs over the retention cap.
func (s *Server) evictLocked() {
	for len(s.jobs) > s.opt.MaxJobs {
		evicted := false
		for i, id := range s.order {
			j := s.jobs[id]
			if j == nil {
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
			j.mu.Lock()
			terminal := j.status == StatusDone || j.status == StatusFailed || j.status == StatusRejected
			j.mu.Unlock()
			if terminal {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				s.rememberEvictedLocked(id)
				s.journal(journalRecord{Op: opEvict, ID: id})
				s.obs.Counter("serve.evicted").Inc()
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything retained is still live; do not grow-block
		}
	}
}

// Job returns a snapshot of the job with the given id. An id the
// server once held but dropped by retention answers ErrEvicted; an id
// it never issued answers ErrUnknownJob.
func (s *Server) Job(id string) (*Job, error) {
	s.mu.Lock()
	j := s.jobs[id]
	_, ev := s.evicted[id]
	s.mu.Unlock()
	if j == nil {
		if ev {
			return nil, ErrEvicted
		}
		return nil, ErrUnknownJob
	}
	return j.snapshot(), nil
}

// Wait blocks until the job reaches a terminal status (or ctx ends)
// and returns its final snapshot.
func (s *Server) Wait(ctx context.Context, id string) (*Job, error) {
	s.mu.Lock()
	j := s.jobs[id]
	_, ev := s.evicted[id]
	s.mu.Unlock()
	if j == nil {
		if ev {
			return nil, ErrEvicted
		}
		return nil, ErrUnknownJob
	}
	select {
	case <-j.done:
		return j.snapshot(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// finish moves the job to a terminal state and signals waiters.
func (s *Server) finish(j *job, st Status, plan *lrp.Plan, m *Metrics, err error) {
	// Journal before visibility (DESIGN §13): the terminal record is
	// appended before any reader can see the terminal state, the
	// snapshot a due compaction writes already holds it, and only then
	// are waiters woken. The terminal counters are also counted before
	// the wake-up, so a woken waiter reads them.
	s.journalTerminal(j, st, plan, m, err)
	j.mu.Lock()
	j.status = st
	j.plan = plan
	j.metrics = m
	j.err = err
	j.mu.Unlock()
	s.maybeCompactJournal()
	switch st {
	case StatusDone:
		s.obs.Counter("serve.done").Inc()
	case StatusRejected:
		s.obs.Counter("serve.rejected_drain_queued").Inc()
	default:
		s.obs.Counter("serve.failed").Inc()
		if errors.Is(err, context.DeadlineExceeded) {
			s.obs.Counter("serve.expired").Inc()
		}
	}
	close(j.done)
}

// worker is the solve loop: dequeue, honour drain and deadlines, run
// the full build → sample → decode → verify pipeline, account the
// tenant's budget.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		var j *job
		select {
		case j = <-s.queue:
		case <-s.baseCtx.Done():
			return
		}
		if j == nil {
			return
		}
		s.mu.Lock()
		draining := s.draining
		s.obs.Gauge("serve.queue_depth").Set(float64(len(s.queue)))
		s.mu.Unlock()
		if draining {
			// Drain contract: in-flight solves finish, queued jobs are
			// rejected gracefully instead of started late.
			s.finish(j, StatusRejected, nil, nil, ErrDraining)
			continue
		}
		s.run(j)
	}
}

// run executes one job.
func (s *Server) run(j *job) {
	now := s.clock.Now()
	if !now.Before(j.deadline) {
		s.finish(j, StatusFailed, nil, nil,
			fmt.Errorf("serve: deadline expired after %v in queue: %w",
				now.Sub(j.submitted), context.DeadlineExceeded))
		return
	}
	j.mu.Lock()
	j.status = StatusRunning
	j.started = now
	j.mu.Unlock()
	s.journal(journalRecord{Op: opRun, ID: j.id})
	s.mu.Lock()
	s.inflight++
	s.obs.Gauge("serve.inflight").Set(float64(s.inflight))
	s.mu.Unlock()
	s.obs.Histogram("serve.queue_wait_ms").Observe(float64(now.Sub(j.submitted)) / float64(time.Millisecond))

	// The per-request deadline propagates both ways: as a clock
	// deadline the solver polls (exact under the fake clock) and as a
	// context deadline on the pipeline (real time), so a stuck backend
	// is cut off even if it stops polling the clock.
	// The verified plan cache answers before any solver spends cloud or
	// CPU time; the hit has already re-passed verify.Plan inside Get.
	cp := plancache.Params{K: j.req.k(), Form: int(j.req.formulation())}
	if plan, ok := s.opt.Cache.Get(j.in, cp); ok {
		wall := s.clock.Since(now)
		s.settle(j, wall)
		s.obs.Counter("serve.cache_hits").Inc()
		ev := lrp.Evaluate(j.in, plan)
		rep := verify.Plan(j.in, plan, cp.K, s.opt.Verify)
		m := &Metrics{
			ImbalanceBefore: j.in.Imbalance(),
			ImbalanceAfter:  ev.Imbalance,
			Speedup:         ev.Speedup,
			Migrated:        ev.Migrated,
			// No CQM was built for a hit, so there is no sample
			// objective to report; Objective stays zero like Qubits.
			SampleFeasible: rep.Feasible,
			WallMs:         float64(wall) / float64(time.Millisecond),
			CacheHit:       true,
		}
		s.finish(j, StatusDone, plan, m, nil)
		return
	}

	remaining := j.deadline.Sub(now)
	ctx, cancel := context.WithTimeout(s.baseCtx, remaining)
	pl := qlrb.Pipeline{
		Build:  qlrb.BuildOptions{Form: j.req.formulation(), K: j.req.k()},
		Solver: func(*qlrb.Encoded) solve.Solver { return s.opt.Backend },
		Verify: s.opt.Verify,
		Obs:    s.obs,
		Opts: []solve.Option{
			solve.WithClock(s.clock),
			solve.WithDeadline(j.deadline),
			solve.WithSeed(j.req.Seed),
		},
	}
	plan, stats, err := pl.Run(ctx, j.in)
	cancel()
	wall := s.clock.Since(now)
	s.settle(j, wall)

	if err != nil {
		if cerr := ctx.Err(); cerr != nil && !errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("%w (%w)", err, cerr)
		}
		s.finish(j, StatusFailed, nil, nil, err)
		return
	}
	ev := lrp.Evaluate(j.in, plan)
	m := &Metrics{
		ImbalanceBefore: j.in.Imbalance(),
		ImbalanceAfter:  ev.Imbalance,
		Speedup:         ev.Speedup,
		Migrated:        ev.Migrated,
		Objective:       stats.Objective,
		Qubits:          stats.Qubits,
		SampleFeasible:  stats.SampleFeasible,
		Repaired:        stats.Repaired,
		WallMs:          float64(wall) / float64(time.Millisecond),
	}
	// A cleanly solved, verified plan seeds the cache for the next
	// repeat of this round; a rejected Put only bumps
	// plancache.put_rejects.
	_ = s.opt.Cache.Put(j.in, cp, plan)
	s.finish(j, StatusDone, plan, m, nil)
}

// settle lands a finished (or cache-served) job's accounting: inflight
// gauge, tenant budget burn, and the solve-time histogram.
func (s *Server) settle(j *job, wall time.Duration) {
	s.mu.Lock()
	s.inflight--
	s.obs.Gauge("serve.inflight").Set(float64(s.inflight))
	if t := s.tenants[j.tenant]; t != nil {
		t.used += wall
	}
	s.mu.Unlock()
	s.obs.Histogram("serve.solve_ms").Observe(float64(wall) / float64(time.Millisecond))
}

// Drain stops admission, rejects everything still queued, waits for
// in-flight solves to finish (up to ctx's deadline, after which they
// are cancelled and awaited), and flushes the observability state.
// Drain is idempotent; concurrent calls all wait for completion.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue) // workers drain the remaining entries as rejected
		close(s.drainStarted)
		s.obs.Gauge("serve.draining").Set(1)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline: cancel in-flight solves (they return best partials
		// per the engine contract) and wait for the workers to land.
		s.cancelBase()
		<-done
		err = fmt.Errorf("serve: drain deadline hit, in-flight solves cancelled: %w", ctx.Err())
	}
	s.cancelBase()
	h := s.Health()
	s.obs.Emit("serve.drain", map[string]any{
		"inflight_at_end": h.Inflight,
		"jobs":            h.Jobs,
		"forced":          err != nil,
	})
	return err
}
