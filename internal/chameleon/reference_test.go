package chameleon

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/lrp"
)

// refRuntime is the per-task simulator the run-length queues replaced,
// frozen verbatim (one Task per queued task, a sort.SliceStable of the
// tasks and a container/heap worker heap per iteration). The
// differential tests require the live Runtime to reproduce it bit for
// bit; do not edit it to follow the live code.
type refRuntime struct {
	cfg    Config
	queues [][]Task
	iter   int
	tracer func(TraceEvent)
}

func refNew(cfg Config, in *lrp.Instance) (*refRuntime, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("chameleon: Workers must be positive, got %d", cfg.Workers)
	}
	if cfg.LatencyMs < 0 || cfg.PerTaskMs < 0 {
		return nil, fmt.Errorf("chameleon: negative communication costs")
	}
	r := &refRuntime{cfg: cfg, queues: make([][]Task, in.NumProcs())}
	for j := range r.queues {
		q := make([]Task, in.Tasks[j])
		for t := range q {
			q[t] = Task{Load: in.Weight[j], Origin: j}
		}
		r.queues[j] = q
	}
	return r, nil
}

func (r *refRuntime) ApplyPlan(p *lrp.Plan) (MigrationStats, error) {
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
		if out > len(r.queues[j]) {
			return stats, fmt.Errorf("chameleon: plan moves %d tasks from proc %d holding %d", out, j, len(r.queues[j]))
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
			// Detach the last c tasks from j and append to i.
			q := r.queues[j]
			moved := q[len(q)-c:]
			r.queues[j] = q[:len(q)-c]
			for _, t := range moved {
				t.Available = arrival
				r.queues[i] = append(r.queues[i], t)
			}
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

type refWorkerHeap []workerSlot

func (h refWorkerHeap) Len() int { return len(h) }
func (h refWorkerHeap) Less(i, j int) bool {
	if h[i].free != h[j].free {
		return h[i].free < h[j].free
	}
	return h[i].id < h[j].id
}
func (h refWorkerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refWorkerHeap) Push(x any)   { *h = append(*h, x.(workerSlot)) }
func (h *refWorkerHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

func (r *refRuntime) RunIteration() IterStats {
	m := len(r.queues)
	stats := IterStats{Finish: make([]float64, m), Busy: make([]float64, m)}
	for p := 0; p < m; p++ {
		q := append([]Task(nil), r.queues[p]...)
		sort.SliceStable(q, func(a, b int) bool {
			if q[a].Available != q[b].Available {
				return q[a].Available < q[b].Available
			}
			return r.cfg.LPT && q[a].Load > q[b].Load
		})
		h := make(refWorkerHeap, r.cfg.workersOf(p))
		for w := range h {
			h[w] = workerSlot{id: w}
		}
		heap.Init(&h)
		finish := 0.0
		for _, t := range q {
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
			heap.Fix(&h, 0)
			if end > finish {
				finish = end
			}
			stats.Busy[p] += t.Load
		}
		stats.Finish[p] = finish
		if finish > stats.MakespanMs {
			stats.MakespanMs = finish
		}
		// Mark tasks local for subsequent iterations.
		for i := range r.queues[p] {
			r.queues[p][i].Available = 0
		}
	}
	for p := 0; p < m; p++ {
		stats.IdleMs += float64(r.cfg.workersOf(p))*stats.MakespanMs - stats.Busy[p]
	}
	stats.Imbalance = lrp.Imbalance(stats.Busy)
	r.iter++
	return stats
}

func (r *refRuntime) QueueLengths() []int {
	out := make([]int, len(r.queues))
	for i, q := range r.queues {
		out[i] = len(q)
	}
	return out
}

func (r *refRuntime) TotalLoad() float64 {
	total := 0.0
	for _, q := range r.queues {
		for _, t := range q {
			total += t.Load
		}
	}
	return total
}
