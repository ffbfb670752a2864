// Package tabu implements deterministic tabu search over constrained
// quadratic models. D-Wave's hybrid solvers run a portfolio of classical
// heuristics (simulated annealing, tabu search, ...) steered by QPU
// samples; this package provides the tabu member of that portfolio: a
// steepest-descent search with a recency-based tabu list and aspiration,
// complementing the stochastic annealer on landscapes where directed
// descent wins.
//
// Like the annealer, the search loop is allocation-free in steady state:
// runs borrow a pooled scratch bundle (evaluator, tabu clock, best-state
// bitset, flip-delta cache) and step over the model's flat CSR layout.
// Each move recomputes only the deltas the previous flip can have
// changed (see searchRun), so a move on a sparse model costs the
// flipped variable's neighbourhood plus one scan of cached deltas.
package tabu

import (
	"math/rand"
	"sync"

	"repro/internal/bits"
	"repro/internal/cqm"
)

// Options configures a search.
type Options struct {
	// Iterations is the number of moves (0 = 50 per variable).
	Iterations int
	// Tenure is how many iterations a flipped variable stays tabu
	// (0 = n/10 + 7).
	Tenure int
	// Penalty is the constraint-penalty weight of the evaluator.
	Penalty float64
	// Seed randomizes the initial state when Initial is nil.
	Seed int64
	// Initial is an optional warm start.
	Initial []bool
	// Frozen variables are never flipped.
	Frozen map[cqm.VarID]bool
	// Stop, when non-nil, is polled every iteration; once it returns
	// true the search winds down and the best state found so far is
	// still returned (see internal/solve).
	Stop func() bool
	// Progress, when non-nil, is called after every iteration with the
	// move count and the best objective/feasibility seen so far.
	Progress func(iteration int, bestObjective float64, feasible bool)
}

// Result mirrors the annealer's result shape.
type Result struct {
	// Best is the best assignment found (feasible preferred).
	Best []bool
	// BestObjective is the model objective of Best.
	BestObjective float64
	// BestFeasible reports whether Best satisfies every constraint.
	BestFeasible bool
	// Moves counts executed flips.
	Moves int64
}

const feasTol = 1e-6

// searchScratch is the reusable per-run state, pooled so repeated
// searches on one model allocate nothing after warm-up.
type searchScratch struct {
	ev        *cqm.Evaluator
	fi        *cqm.FlipIndex
	state     []bool
	pool      []cqm.VarID
	tabuUntil []int
	best      bits.Set

	delta    []float64 // cached FlipDelta per variable (see searchRun)
	seen     []int     // iteration that last refreshed each variable
	affected []int32   // AppendAffected buffer (see searchRun.refresh)
}

var scratchPool sync.Pool

func getScratch(m *cqm.Model, penalty float64) *searchScratch {
	if sc, _ := scratchPool.Get().(*searchScratch); sc != nil {
		if sc.ev.Model() == m && sc.ev.LayoutCurrent() {
			sc.ev.SetAllPenalties(penalty)
			for i := range sc.tabuUntil {
				sc.tabuUntil[i] = 0
			}
			return sc
		}
	}
	n := m.NumVars()
	return &searchScratch{
		ev:        cqm.NewEvaluator(m, penalty),
		fi:        m.FlipIndex(),
		state:     make([]bool, n),
		pool:      make([]cqm.VarID, 0, n),
		tabuUntil: make([]int, n),
		best:      bits.New(n),
		delta:     make([]float64, n),
		seen:      make([]int, n),
		affected:  make([]int32, 0, n),
	}
}

// searchRun is one search's hot state; its step method is
// allocation-free (asserted by the perf-gate tests).
//
// The run keeps every variable's flip delta cached in delta. After a
// flip of u only the deltas in u's flip neighbourhood (cqm.FlipIndex)
// can change, so only those are recomputed, with the same FlipDelta
// call on the same state a full rescan would make: the cache always
// holds the values a full rescan would produce, and the trajectory is
// bit-identical to recomputing every delta every step. When u's
// neighbourhood is at least as long as the pool (a dense model, where
// one expression spans every variable), walking it would cost more than
// the rescan it saves, so the run marks the cache stale instead and the
// next step recomputes every delta inside its single scan.
type searchRun struct {
	ev     *cqm.Evaluator
	fi     *cqm.FlipIndex
	rng    *rand.Rand
	pool   []cqm.VarID
	tabu   []int
	tenure int

	delta    []float64
	seen     []int
	affected []int32
	stale    bool // delta must be recomputed by the next scan

	best       bits.Set
	bestObj    float64
	bestFeas   bool
	bestEnergy float64

	moves int64
}

// startRun sets the scratch up for one search of its model under opt
// (defaults already applied) and returns the run: the starting state
// (opt.Initial or drawn from rng, then opt.Frozen), the pool of movable
// variables, and a stale delta cache that the first step fills. rng,
// seeded from opt.Seed, is the caller's so it can stay on its stack.
// Search and the tests build every run through it.
func (sc *searchScratch) startRun(opt Options, rng *rand.Rand) searchRun {
	ev := sc.ev
	n := ev.Model().NumVars()
	state := sc.state[:n]
	if opt.Initial != nil {
		copy(state, opt.Initial)
	} else {
		for i := range state {
			state[i] = rng.Intn(2) == 0
		}
	}
	for v, val := range opt.Frozen {
		state[v] = val
	}
	ev.Reset(state)

	pool := sc.pool[:0]
	for i := 0; i < n; i++ {
		if _, frozen := opt.Frozen[cqm.VarID(i)]; !frozen {
			pool = append(pool, cqm.VarID(i))
		}
	}
	sc.pool = pool
	for i := range sc.seen {
		sc.seen[i] = 0
	}

	r := searchRun{
		ev:         ev,
		fi:         sc.fi,
		rng:        rng,
		pool:       pool,
		tabu:       sc.tabuUntil,
		tenure:     opt.Tenure,
		delta:      sc.delta,
		seen:       sc.seen,
		affected:   sc.affected,
		stale:      true,
		best:       sc.best,
		bestObj:    ev.ObjectiveValue(),
		bestFeas:   ev.Feasible(feasTol),
		bestEnergy: ev.Energy(),
	}
	r.best.CopyFrom(ev.Words())
	return r
}

// record keeps the current state if it beats the best seen so far.
func (r *searchRun) record() {
	feas := r.ev.Feasible(feasTol)
	obj := r.ev.ObjectiveValue()
	if (feas && !r.bestFeas) || (feas == r.bestFeas && obj < r.bestObj) {
		r.bestFeas, r.bestObj = feas, obj
		r.best.CopyFrom(r.ev.Words())
	}
}

// step executes one iteration: the steepest admissible move over the
// whole pool (tabu moves admitted only under aspiration). It reports
// false when every move is tabu and nothing aspirates.
func (r *searchRun) step(it int) bool {
	ev, pool, cache, tabu, rng := r.ev, r.pool, r.delta, r.tabu, r.rng
	rescan := r.stale
	energy, aspire := ev.Energy(), r.bestEnergy-1e-12
	bestVar := cqm.VarID(-1)
	bestDelta := 0.0
	found := false
	for _, v := range pool {
		var delta float64
		if rescan {
			delta = ev.FlipDelta(v)
			cache[v] = delta
		} else {
			delta = cache[v]
		}
		if found && delta > bestDelta {
			continue // can neither win nor tie, so it draws no tie-break
		}
		if tabu[v] >= it && energy+delta >= aspire {
			continue
		}
		if !found || delta < bestDelta || (delta == bestDelta && rng.Intn(2) == 0) {
			found = true
			bestVar, bestDelta = v, delta
		}
	}
	r.stale = false
	if !found {
		return false
	}
	ev.CommitFlip(bestVar, bestDelta)
	r.refresh(bestVar, it)
	r.moves++
	r.tabu[bestVar] = it + r.tenure
	if e := ev.Energy(); e < r.bestEnergy {
		r.bestEnergy = e
	}
	r.record()
	return true
}

// refresh brings the delta cache up to date after the flip of u in
// iteration it: it recomputes each variable of u's flip neighbourhood
// once, or marks the whole cache stale when that neighbourhood is at
// least as long as the pool. The walk happens only below the pool
// length, so the affected buffer (capacity n) never grows.
func (r *searchRun) refresh(u cqm.VarID, it int) {
	if r.fi.Span(u) >= len(r.pool) {
		r.stale = true
		return
	}
	ev, seen, cache := r.ev, r.seen, r.delta
	for _, w := range r.fi.AppendAffected(r.affected[:0], u) {
		if seen[w] != it {
			seen[w] = it
			cache[w] = ev.FlipDelta(cqm.VarID(w))
		}
	}
}

// withDefaults fills the zero-valued knobs of opt for an n-variable
// model.
func (opt Options) withDefaults(n int) Options {
	if opt.Iterations <= 0 {
		opt.Iterations = 50 * max(1, n)
	}
	if opt.Tenure <= 0 {
		opt.Tenure = n/10 + 7
	}
	if opt.Penalty <= 0 {
		opt.Penalty = 1
	}
	return opt
}

// Search runs tabu search on m and returns the best assignment found.
func Search(m *cqm.Model, opt Options) Result {
	n := m.NumVars()
	opt = opt.withDefaults(n)
	sc := getScratch(m, opt.Penalty)
	defer scratchPool.Put(sc)
	run := sc.startRun(opt, rand.New(rand.NewSource(opt.Seed)))

	res := Result{}
	if len(run.pool) == 0 {
		res.Best = run.best.ToBools(n)
		res.BestObjective, res.BestFeasible = run.bestObj, run.bestFeas
		return res
	}

	for it := 1; it <= opt.Iterations; it++ {
		if opt.Stop != nil && opt.Stop() {
			break // interrupted: return the best state found so far
		}
		if !run.step(it) {
			break // everything tabu and nothing aspirates: stuck
		}
		if opt.Progress != nil {
			opt.Progress(it, run.bestObj, run.bestFeas)
		}
	}
	res.Moves = run.moves
	res.Best = run.best.ToBools(n)
	res.BestObjective, res.BestFeasible = run.bestObj, run.bestFeas
	return res
}
