// Package chameleon is a deterministic simulator of the task-based
// MPI+OpenMP runtime the paper builds on (Klinkenberg et al.'s
// Chameleon): each process runs a set of compute workers plus one
// dedicated communication thread, applications execute in bulk-
// synchronous iterations, and task migration overlaps computation but
// costs communication time (latency + per-task transfer time).
//
// The experiments use it to evaluate migration plans end to end: the
// paper's R_imb/speedup metrics are computed from load values alone, but
// the runtime simulator additionally exposes the migration overhead that
// motivates the paper's ≤ k migration constraint (ablation A3 in
// DESIGN.md).
package chameleon

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/lrp"
)

// Config describes the simulated machine.
type Config struct {
	// Workers is the number of compute threads per process (the comm
	// thread is additional and implicit).
	Workers int
	// LatencyMs is the fixed cost of one migration message.
	LatencyMs float64
	// PerTaskMs is the added transfer cost per migrated task.
	PerTaskMs float64
	// LPT makes workers execute the longest available task first
	// (priority scheduling) instead of queue order; real task runtimes
	// approximate this to avoid a long task landing last on a worker.
	LPT bool
	// WorkersPerProc overrides Workers per process (heterogeneous
	// machines); empty means all processes use Workers.
	WorkersPerProc []int
}

// workersOf returns the worker count of process p.
func (c Config) workersOf(p int) int {
	if p < len(c.WorkersPerProc) && c.WorkersPerProc[p] > 0 {
		return c.WorkersPerProc[p]
	}
	return c.Workers
}

// DefaultConfig models a commodity cluster interconnect: 28-way nodes
// with one comm thread (27 workers, as on the paper's CoolMUC2 nodes),
// 100 us message latency, 50 us per migrated task.
func DefaultConfig() Config {
	return Config{Workers: 27, LatencyMs: 0.1, PerTaskMs: 0.05}
}

// Task is one unit of work owned by a process queue.
type Task struct {
	// Load is the execution time in milliseconds.
	Load float64
	// Origin is the process the task was originally assigned to.
	Origin int
	// Available is the simulation time at which the task may start
	// (non-zero for freshly migrated tasks still in flight).
	Available float64
}

// run is n consecutive identical tasks of one process queue. Queues
// hold runs instead of tasks: a process starts with one run and a
// migration message splits at most one, so a queue of thousands of
// equal tasks costs a few runs instead of 24 bytes per task.
type run struct {
	Task
	n int
}

// Runtime is one simulated application run: per-process task queues plus
// machine configuration.
type Runtime struct {
	cfg Config
	// queues[p] is process p's run-length task queue, head first; the
	// tasks it expands to are the queue the runtime models.
	queues [][]run
	// counts[p] is the number of tasks queues[p] holds.
	counts []int
	iter   int
	tracer func(TraceEvent)

	// RunIteration scratch, reused across iterations.
	order   []run
	workers workerHeap
}

// SetTracer installs a callback receiving one TraceEvent per executed
// task (nil disables tracing). Use WriteTraceLog to persist events in
// the textual execution-log format.
func (r *Runtime) SetTracer(fn func(TraceEvent)) { r.tracer = fn }

// New builds a runtime holding the instance's tasks in their original
// placement.
func New(cfg Config, in *lrp.Instance) (*Runtime, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("chameleon: Workers must be positive, got %d", cfg.Workers)
	}
	if cfg.LatencyMs < 0 || cfg.PerTaskMs < 0 {
		return nil, fmt.Errorf("chameleon: negative communication costs")
	}
	m := in.NumProcs()
	r := &Runtime{cfg: cfg, queues: make([][]run, m), counts: make([]int, m)}
	for j := range r.queues {
		if n := in.Tasks[j]; n > 0 {
			r.queues[j] = []run{{Task{Load: in.Weight[j], Origin: j}, n}}
			r.counts[j] = n
		}
	}
	return r, nil
}

// MigrationStats summarises the communication work of one ApplyPlan.
type MigrationStats struct {
	// Messages is the number of point-to-point migration messages.
	Messages int
	// Tasks is the total number of migrated tasks.
	Tasks int
	// CommTimeMs is the total communication time across all senders.
	CommTimeMs float64
	// LastArrivalMs is when the final migrated task became available.
	LastArrivalMs float64
}

// ApplyPlan executes a migration plan: for every off-diagonal entry
// X[i][j] > 0 one message carries that many tasks from j to i. Each
// sender's dedicated comm thread serializes its outgoing messages;
// arrival time is send-completion plus latency, and migrated tasks only
// become available at the destination from then on (computation
// overlaps communication, as in Chameleon). It returns an error if the
// plan is invalid for the current queues.
func (r *Runtime) ApplyPlan(p *lrp.Plan) (MigrationStats, error) {
	m := len(r.queues)
	if p.NumProcs() != m {
		return MigrationStats{}, fmt.Errorf("chameleon: plan covers %d procs, runtime has %d", p.NumProcs(), m)
	}
	var stats MigrationStats
	for j := 0; j < m; j++ {
		out := 0
		for i := 0; i < m; i++ {
			if i != j {
				out += p.X[i][j]
			}
		}
		if out > r.counts[j] {
			return stats, fmt.Errorf("chameleon: plan moves %d tasks from proc %d holding %d", out, j, r.counts[j])
		}
		sendClock := 0.0
		// Deterministic destination order.
		for i := 0; i < m; i++ {
			c := p.X[i][j]
			if i == j || c == 0 {
				continue
			}
			sendClock += r.cfg.LatencyMs + float64(c)*r.cfg.PerTaskMs
			arrival := sendClock
			r.migrate(j, i, c, arrival)
			stats.Messages++
			stats.Tasks += c
			if arrival > stats.LastArrivalMs {
				stats.LastArrivalMs = arrival
			}
		}
		stats.CommTimeMs += sendClock
	}
	return stats, nil
}

// migrate detaches the last c (> 0) tasks of process from and appends
// them, in queue order, to process to, available from arrival on. It
// splits at most one run. Received tasks join the tail of a queue, so a
// process that received tasks earlier in the same plan forwards those
// first.
func (r *Runtime) migrate(from, to, c int, arrival float64) {
	q := r.queues[from]
	k, taken := len(q), 0
	for taken < c {
		k--
		taken += q[k].n
	}
	// q[k:] holds the last taken >= c tasks; the first keep of run k stay.
	keep := taken - c
	dst := r.queues[to]
	head := q[k]
	head.n -= keep
	head.Available = arrival
	dst = append(dst, head)
	for _, t := range q[k+1:] {
		t.Available = arrival
		dst = append(dst, t)
	}
	r.queues[to] = dst
	if keep > 0 {
		q[k].n = keep
		k++
	}
	r.queues[from] = q[:k]
	r.counts[from] -= c
	r.counts[to] += c
}

// IterStats reports the outcome of one BSP iteration.
type IterStats struct {
	// MakespanMs is the iteration's wall time: the slowest process
	// finish (every process waits at the synchronization point).
	MakespanMs float64
	// Finish[i] is process i's local finish time.
	Finish []float64
	// Busy[i] is the total compute time process i's workers performed.
	Busy []float64
	// IdleMs is the total worker idle time summed over processes
	// (waiting at the barrier or for migrated tasks).
	IdleMs float64
	// Imbalance is R_imb computed over per-process busy times.
	Imbalance float64
}

// workerSlot is one compute thread in the per-process scheduling heap.
type workerSlot struct {
	free float64
	id   int
}

// workerHeap is a binary min-heap of worker slots ordered by (free, id):
// its root is the worker that picks the next task.
type workerHeap []workerSlot

func (h workerHeap) less(i, j int) bool {
	if h[i].free != h[j].free {
		return h[i].free < h[j].free
	}
	return h[i].id < h[j].id
}

// fixRoot restores the heap order after the root's free time grew.
func (h workerHeap) fixRoot() {
	i, n := 0, len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// byAvailable orders runs by the time their tasks become available.
func byAvailable(a, b run) int { return cmp.Compare(a.Available, b.Available) }

// byAvailableLongest breaks byAvailable ties longest task first (LPT).
func byAvailableLongest(a, b run) int {
	if c := cmp.Compare(a.Available, b.Available); c != 0 {
		return c
	}
	return cmp.Compare(b.Load, a.Load)
}

// RunIteration simulates one computation phase: each process's workers
// greedily execute available tasks (list scheduling in availability
// order). Afterwards all tasks are considered local (Available reset),
// modelling the BSP synchronization point.
//
// The execution order is a stable sort of the queue's tasks by
// availability (then longest first under LPT). Every task of a run has
// the same key, so stably sorting the runs and expanding them yields
// exactly that order.
func (r *Runtime) RunIteration() IterStats {
	m := len(r.queues)
	stats := IterStats{Finish: make([]float64, m), Busy: make([]float64, m)}
	for p := 0; p < m; p++ {
		order := append(r.order[:0], r.queues[p]...)
		r.order = order
		if r.cfg.LPT {
			slices.SortStableFunc(order, byAvailableLongest)
		} else {
			slices.SortStableFunc(order, byAvailable)
		}
		// Equal free times in ascending id order already form a heap.
		h := r.workers[:0]
		for w := 0; w < r.cfg.workersOf(p); w++ {
			h = append(h, workerSlot{id: w})
		}
		r.workers = h
		finish := 0.0
		for _, t := range order {
			for k := 0; k < t.n; k++ {
				start := h[0].free
				if t.Available > start {
					start = t.Available
				}
				end := start + t.Load
				if r.tracer != nil {
					r.tracer(TraceEvent{
						Iter: r.iter, Proc: p, Worker: h[0].id,
						Origin: t.Origin, StartMs: start, EndMs: end,
					})
				}
				h[0].free = end
				h.fixRoot()
				if end > finish {
					finish = end
				}
				stats.Busy[p] += t.Load
			}
		}
		stats.Finish[p] = finish
		if finish > stats.MakespanMs {
			stats.MakespanMs = finish
		}
		// Mark tasks local for subsequent iterations.
		q := r.queues[p]
		for i := range q {
			q[i].Available = 0
		}
	}
	for p := 0; p < m; p++ {
		stats.IdleMs += float64(r.cfg.workersOf(p))*stats.MakespanMs - stats.Busy[p]
	}
	stats.Imbalance = lrp.Imbalance(stats.Busy)
	r.iter++
	return stats
}

// Run executes several BSP iterations and returns per-iteration stats.
// Migration effects (Available offsets) only apply to the first
// iteration; later iterations run on settled queues.
func (r *Runtime) Run(iterations int) []IterStats {
	out := make([]IterStats, 0, iterations)
	for i := 0; i < iterations; i++ {
		out = append(out, r.RunIteration())
	}
	return out
}

// QueueLengths returns the current number of tasks held by each process.
func (r *Runtime) QueueLengths() []int {
	out := make([]int, len(r.counts))
	copy(out, r.counts)
	return out
}

// TotalLoad returns the summed load of all queued tasks.
func (r *Runtime) TotalLoad() float64 {
	total := 0.0
	for _, q := range r.queues {
		for _, t := range q {
			for k := 0; k < t.n; k++ {
				total += t.Load
			}
		}
	}
	return total
}
