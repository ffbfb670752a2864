package main

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/balancer"
	"repro/internal/cqm"
	"repro/internal/lrp"
	"repro/internal/obs"
	"repro/internal/resilient"
	"repro/internal/solve"
)

// The traced phase wraps each layer's public seam from outside the
// program. Every wrapper forwards the optional interfaces its layer's
// caller type-asserts (Compactor on both journals, Policy on route
// backends), so the traced program takes the same code paths as the
// untraced one.

// journal is the seam serve.Journal and plancache.Journal share.
type journal interface {
	Append(rec []byte) error
}

// compactor is the optional Compactor side of both journal seams.
type compactor interface {
	CompactDue() bool
	Compact(records [][]byte) error
}

// logTally counts one journal's appends and compactions.
type logTally struct {
	appends, appendNs               atomic.Int64
	compactions, compactNs, snapByt atomic.Int64
}

func (t *logTally) reset() {
	for _, c := range []*atomic.Int64{&t.appends, &t.appendNs, &t.compactions, &t.compactNs, &t.snapByt} {
		c.Store(0)
	}
}

type tracedJournal struct {
	inner journal
	t     *logTally
}

func (j *tracedJournal) Append(rec []byte) error {
	start := time.Now()
	err := j.inner.Append(rec)
	j.t.appendNs.Add(int64(time.Since(start)))
	j.t.appends.Add(1)
	return err
}

type tracedCompactingJournal struct {
	tracedJournal
	comp compactor
}

func (j *tracedCompactingJournal) CompactDue() bool { return j.comp.CompactDue() }

func (j *tracedCompactingJournal) Compact(records [][]byte) error {
	n := 0
	for _, r := range records {
		n += len(r)
	}
	start := time.Now()
	err := j.comp.Compact(records)
	j.t.compactNs.Add(int64(time.Since(start)))
	j.t.compactions.Add(1)
	j.t.snapByt.Add(int64(n))
	return err
}

// traceJournal wraps a journal, keeping its Compactor side if it has one.
func traceJournal(inner journal, t *logTally) journal {
	tj := tracedJournal{inner: inner, t: t}
	if c, ok := inner.(compactor); ok {
		return &tracedCompactingJournal{tracedJournal: tj, comp: c}
	}
	return &tj
}

// solverTally counts one solver's calls, busy time and work.
type solverTally struct {
	calls, busyNs, flips, interrupted atomic.Int64

	mu    sync.Mutex
	latMs []float64
}

func (t *solverTally) reset() {
	for _, c := range []*atomic.Int64{&t.calls, &t.busyNs, &t.flips, &t.interrupted} {
		c.Store(0)
	}
	t.mu.Lock()
	t.latMs = t.latMs[:0]
	t.mu.Unlock()
}

// medianMs returns the median call duration in milliseconds.
func (t *solverTally) medianMs() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return median(t.latMs)
}

type tracedSolver struct {
	inner solve.Solver
	t     *solverTally
}

func (s *tracedSolver) Name() string { return s.inner.Name() }

func (s *tracedSolver) Solve(ctx context.Context, m *cqm.Model, opts ...solve.Option) (res *solve.Result, err error) {
	start := time.Now()
	defer func() {
		el := time.Since(start)
		s.t.calls.Add(1)
		s.t.busyNs.Add(int64(el))
		s.t.mu.Lock()
		s.t.latMs = append(s.t.latMs, ms(el))
		s.t.mu.Unlock()
		if res != nil {
			s.t.flips.Add(res.Stats.Flips)
			if res.Stats.Interrupted {
				s.t.interrupted.Add(1)
			}
		}
	}()
	return s.inner.Solve(ctx, m, opts...)
}

// breakerHolder is the interface route reads circuit-breaker state
// through.
type breakerHolder interface{ Policy() *resilient.Policy }

type tracedBreakerSolver struct {
	*tracedSolver
	h breakerHolder
}

func (s tracedBreakerSolver) Policy() *resilient.Policy { return s.h.Policy() }

// traceSolver wraps a solver, keeping its Policy side if it has one.
func traceSolver(inner solve.Solver, t *solverTally) solve.Solver {
	ts := &tracedSolver{inner: inner, t: t}
	if h, ok := inner.(breakerHolder); ok {
		return tracedBreakerSolver{tracedSolver: ts, h: h}
	}
	return ts
}

// httpTally counts the bytes the HTTP API writes.
type httpTally struct{ bytes atomic.Int64 }

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// wrap counts the response bytes of every request the handler serves.
func (t *httpTally) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		t.bytes.Add(cw.n)
	})
}

// stopwatch is the shard-rounds caller's clock around each rebalance
// call; it also keeps the (instance, plan) pairs of the current
// application run for the oracle. It is present in both phases.
type stopwatch struct {
	inner balancer.Rebalancer

	lat   []float64
	busy  time.Duration
	ins   []*lrp.Instance
	plans []*lrp.Plan
}

func (s *stopwatch) Name() string { return s.inner.Name() }

func (s *stopwatch) Rebalance(ctx context.Context, in *lrp.Instance) (*lrp.Plan, error) {
	start := time.Now()
	plan, err := s.inner.Rebalance(ctx, in)
	el := time.Since(start)
	s.busy += el
	s.lat = append(s.lat, ms(el))
	s.ins = append(s.ins, in)
	s.plans = append(s.plans, plan)
	return plan, err
}

// regDelta reads counter and span-histogram changes of a registry
// between two snapshots.
type regDelta struct{ before, after obs.Snapshot }

func (d regDelta) counter(name string) float64 {
	return float64(counterValue(d.after, name) - counterValue(d.before, name))
}

// span returns the number and total milliseconds of spans named name.
func (d regDelta) span(name string) (count, totalMs float64) {
	c1, s1 := histValue(d.after, "span."+name+".ms")
	c0, s0 := histValue(d.before, "span."+name+".ms")
	return float64(c1 - c0), s1 - s0
}

// spanMeanMs returns the mean duration of spans named name (0 if none).
func (d regDelta) spanMeanMs(name string) float64 {
	n, total := d.span(name)
	if n == 0 {
		return 0
	}
	return total / n
}

func counterValue(s obs.Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

func histValue(s obs.Snapshot, name string) (int64, float64) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h.Count, h.Sum
		}
	}
	return 0, 0
}

// perLayerNames lists every per-layer metric with its unit. A layer a
// workload does not reach reports 0.
var perLayerNames = []struct{ name, unit string }{
	{"serve.post_ms", "ms"}, {"serve.get_ms", "ms"}, {"serve.resp_bytes", "bytes"},
	{"serve.queue_wait_ms", "ms"}, {"serve.job_wall_ms", "ms"},
	{"serve.dials", "count"}, {"serve.rejected", "count"},
	{"plancache.hit_ratio", "ratio"}, {"plancache.rejects", "count"}, {"plancache.evictions", "count"},
	{"wal.serve.appends_per_req", "count"}, {"wal.serve.append_s", "s"},
	{"wal.serve.compactions_per_req", "count"}, {"wal.serve.compact_s", "s"},
	{"wal.serve.snapshot_bytes", "bytes"},
	{"wal.plancache.appends", "count"}, {"wal.plancache.append_s", "s"},
	{"route.solve_ms", "ms"},
	{"route.picks.sa", "count"}, {"route.picks.tabu", "count"}, {"route.picks.exact", "count"},
	{"sa.calls", "count"}, {"sa.busy_s", "s"}, {"sa.flips_per_call", "count"},
	{"tabu.calls", "count"}, {"tabu.busy_s", "s"}, {"tabu.interrupted", "count"},
	{"exact.calls", "count"}, {"exact.busy_s", "s"}, {"exact.interrupted", "count"},
	{"qlrb.build_ms", "ms"}, {"qlrb.sample_ms", "ms"}, {"qlrb.decode_ms", "ms"},
	{"qlrb.verify_ms", "ms"}, {"qlrb.repairs", "count"},
	{"shard.rebalance_s", "s"}, {"shard.groups", "count"}, {"shard.levels", "count"},
	{"shard.sub_solves", "count"}, {"shard.max_shard_qubits", "count"},
	{"shard.subsolve_s", "s"}, {"shard.coordinate_ms", "ms"}, {"shard.merge_ms", "ms"},
	{"shard.verify_ms", "ms"}, {"shard.parallel_eff", "ratio"},
	{"dlb.migrated_tasks", "count"}, {"dlb.degraded_rounds", "count"}, {"dlb.sim_s", "s"},
	{"budget.residual_frac", "ratio"},
}

// layerMetrics fills every per-layer metric from vals (missing = 0).
func layerMetrics(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(perLayerNames)+1)
	for _, n := range perLayerNames {
		out[n.name] = metric{vals[n.name], n.unit}
	}
	return out
}

// qlrbLayer reads the qlrb pipeline's stage spans and repair counter.
func qlrbLayer(d regDelta, vals map[string]float64) {
	vals["qlrb.build_ms"] = d.spanMeanMs("qlrb.build")
	vals["qlrb.sample_ms"] = d.spanMeanMs("qlrb.solve")
	vals["qlrb.decode_ms"] = d.spanMeanMs("qlrb.decode")
	vals["qlrb.verify_ms"] = d.spanMeanMs("qlrb.verify")
	vals["qlrb.repairs"] = d.counter("qlrb.repairs")
}
