// Package sa implements simulated annealing over the binary variables of
// a constrained quadratic model. It is the sampling engine behind the
// hybrid solver (internal/hybrid), standing in for the quantum-annealing
// backend of D-Wave's Leap hybrid CQM solver: it samples the same
// penalized energy landscape and returns low-energy, preferably feasible,
// assignments.
//
// The engine supports geometric inverse-temperature schedules, growing
// constraint-penalty weights, frozen (presolved) variables, independent
// multi-restart portfolios executed on a goroutine pool, and parallel
// tempering.
//
// The inner loop is allocation-free in steady state: each run borrows a
// pooled scratch bundle (evaluator, variable pool, best-state bitset)
// and the per-move kernel works over the model's flat CSR layout with a
// packed bitset assignment (see internal/cqm and internal/bits).
package sa

import (
	"math"
	"math/rand"
	"sync"

	"repro/internal/bits"
	"repro/internal/cqm"
)

// Options configures a single annealing run.
type Options struct {
	// Sweeps is the number of full passes over the variables.
	Sweeps int
	// BetaStart and BetaEnd bound the geometric inverse-temperature
	// schedule. If either is zero, EstimateSchedule picks them.
	BetaStart, BetaEnd float64
	// Penalty is the initial constraint-penalty weight.
	Penalty float64
	// PenaltyGrowth multiplies the penalty weights at each quarter of
	// the schedule, pushing late-stage search into the feasible region.
	// Values <= 1 disable growth.
	PenaltyGrowth float64
	// Seed seeds the run's private RNG.
	Seed int64
	// Frozen maps presolved variables to their fixed values; the
	// annealer never flips them.
	Frozen map[cqm.VarID]bool
	// Initial is an optional warm-start assignment (copied).
	Initial []bool
	// Pairs lists variable pairs that may be co-flipped as one move;
	// model builders supply pairs whose co-flip preserves an equality
	// constraint (e.g. the LRP's task-conservation constraints), letting
	// the annealer cross penalty walls that block single flips.
	Pairs [][2]cqm.VarID
	// PairProb is the probability that a move is a pair co-flip when
	// Pairs is non-empty (0 disables pair moves).
	PairProb float64
	// NoPolish disables the final zero-temperature descent that runs
	// greedy improving flips (and pair co-flips) to a local optimum
	// after the annealing schedule ends.
	NoPolish bool
	// Stop, when non-nil, is polled at every sweep boundary; once it
	// returns true the run winds down and the best state found so far
	// is still returned. The engine layer (internal/solve) wires ctx
	// cancellation and clock deadlines into it.
	Stop func() bool
	// Progress, when non-nil, is called after every sweep with the
	// sweep count and the best objective/feasibility seen so far.
	Progress func(sweep int, bestObjective float64, feasible bool)
}

// DefaultOptions returns a schedule that solves the repository's LRP
// models reliably at moderate cost.
func DefaultOptions() Options {
	return Options{
		Sweeps:        400,
		Penalty:       1,
		PenaltyGrowth: 4,
	}
}

// Result reports the outcome of an annealing run.
type Result struct {
	// Best is the best assignment found, preferring feasible ones.
	Best []bool
	// BestObjective is the model objective of Best.
	BestObjective float64
	// BestFeasible reports whether Best satisfies all constraints.
	BestFeasible bool
	// Sweeps and Flips count the work performed.
	Sweeps int
	Flips  int64
	// Accepted counts accepted moves (for acceptance-rate diagnostics).
	Accepted int64
	// PenaltyRescales counts constraint-penalty growth events.
	PenaltyRescales int
	// Swaps counts accepted replica exchanges (parallel tempering only).
	Swaps int64
}

// feasTol is the feasibility tolerance used throughout; all LRP data is
// integral so a loose absolute tolerance is safe.
const feasTol = 1e-6

// annealScratch is the reusable per-run state. Runs borrow one from a
// sync.Pool so repeated restarts (portfolio workers, benchmark
// iterations) allocate nothing after warm-up.
type annealScratch struct {
	ev    *cqm.Evaluator
	state []bool
	pool  []cqm.VarID
	pairs [][2]cqm.VarID
	best  bits.Set
}

var annealScratchPool sync.Pool

// getScratch returns a scratch bundle ready for model m with uniform
// penalty weights, reusing a pooled one when it matches the model and
// its layout is still current.
func getScratch(m *cqm.Model, penalty float64) *annealScratch {
	if sc, _ := annealScratchPool.Get().(*annealScratch); sc != nil {
		if sc.ev.Model() == m && sc.ev.LayoutCurrent() {
			sc.ev.SetAllPenalties(penalty)
			return sc
		}
		// Wrong model or stale layout: drop it and build fresh.
	}
	n := m.NumVars()
	return &annealScratch{
		ev:    cqm.NewEvaluator(m, penalty),
		state: make([]bool, n),
		pool:  make([]cqm.VarID, 0, n),
		best:  bits.New(n),
	}
}

func putScratch(sc *annealScratch) { annealScratchPool.Put(sc) }

// annealRun is one trajectory's hot state. Its sweep and polish methods
// are allocation-free; the perf-gate tests assert that with
// testing.AllocsPerRun.
type annealRun struct {
	ev  *cqm.Evaluator
	rng *rand.Rand

	pool     []cqm.VarID
	pairs    [][2]cqm.VarID
	pairProb float64
	usePairs bool

	best     bits.Set
	bestObj  float64
	bestFeas bool

	flips    int64
	accepted int64
}

// record keeps the current state if it beats the best seen so far;
// feasible assignments dominate infeasible ones regardless of objective.
func (r *annealRun) record() {
	feas := r.ev.Feasible(feasTol)
	obj := r.ev.ObjectiveValue()
	if (feas && !r.bestFeas) || (feas == r.bestFeas && obj < r.bestObj) {
		r.bestFeas = feas
		r.bestObj = obj
		r.best.CopyFrom(r.ev.Words())
	}
}

// sweep performs one full pass of Metropolis moves at inverse
// temperature beta, then records the reached state.
func (r *annealRun) sweep(beta float64) {
	ev, rng, pool := r.ev, r.rng, r.pool
	for range pool {
		r.flips++
		if r.usePairs && rng.Float64() < r.pairProb {
			p := r.pairs[rng.Intn(len(r.pairs))]
			// Evaluate the co-flip by committing the first half.
			delta := ev.Flip(p[0])
			d1 := ev.FlipDelta(p[1])
			delta += d1
			if delta <= 0 {
				ev.CommitFlip(p[1], d1)
				r.accepted++
				if delta < 0 {
					r.record()
				}
			} else if metropolisAccept(rng.Float64(), beta*delta) {
				ev.CommitFlip(p[1], d1)
				r.accepted++
			} else {
				ev.Flip(p[0]) // revert
			}
			continue
		}
		v := pool[rng.Intn(len(pool))]
		delta := ev.FlipDelta(v)
		if delta <= 0 {
			ev.CommitFlip(v, delta)
			r.accepted++
			if delta < 0 {
				r.record()
			}
		} else if metropolisAccept(rng.Float64(), beta*delta) {
			ev.CommitFlip(v, delta)
			r.accepted++
		}
	}
	r.record()
}

// polish descends greedily from the current state: improving single
// flips, then improving pair co-flips, until a full round changes
// nothing. The reached local optimum is recorded.
func (r *annealRun) polish() {
	ev := r.ev
	improved := true
	for improved {
		improved = false
		for _, v := range r.pool {
			if d := ev.FlipDelta(v); d < -1e-12 {
				ev.CommitFlip(v, d)
				r.flips++
				improved = true
			}
		}
		if r.usePairs {
			for _, p := range r.pairs {
				delta := ev.Flip(p[0])
				d1 := ev.FlipDelta(p[1])
				delta += d1
				if delta < -1e-12 {
					ev.CommitFlip(p[1], d1)
					r.flips++
					improved = true
				} else {
					ev.Flip(p[0])
				}
			}
		}
	}
	r.record()
}

// Anneal runs one simulated-annealing trajectory on m and returns the
// best assignment encountered. Feasible assignments always dominate
// infeasible ones regardless of objective.
func Anneal(m *cqm.Model, opt Options) Result {
	n := m.NumVars()
	rng := rand.New(rand.NewSource(opt.Seed))
	if opt.Sweeps <= 0 {
		opt.Sweeps = DefaultOptions().Sweeps
	}
	if opt.Penalty <= 0 {
		opt.Penalty = 1
	}
	if opt.BetaStart <= 0 || opt.BetaEnd <= 0 {
		bs, be := EstimateSchedule(m, opt.Penalty, rng)
		if opt.BetaStart <= 0 {
			opt.BetaStart = bs
		}
		if opt.BetaEnd <= 0 {
			opt.BetaEnd = be
		}
	}

	sc := getScratch(m, opt.Penalty)
	defer putScratch(sc)
	ev := sc.ev
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

	// Flippable variable pool.
	pool := sc.pool[:0]
	for i := 0; i < n; i++ {
		if _, frozen := opt.Frozen[cqm.VarID(i)]; !frozen {
			pool = append(pool, cqm.VarID(i))
		}
	}
	sc.pool = pool

	run := annealRun{
		ev:       ev,
		rng:      rng,
		pool:     pool,
		best:     sc.best,
		bestObj:  ev.ObjectiveValue(),
		bestFeas: ev.Feasible(feasTol),
	}
	run.best.CopyFrom(ev.Words())

	res := Result{Sweeps: opt.Sweeps}
	if len(pool) == 0 {
		// Empty move set: no sweeps actually run, so don't claim them.
		res.Sweeps = 0
		res.Best = run.best.ToBools(n)
		res.BestObjective, res.BestFeasible = run.bestObj, run.bestFeas
		return res
	}

	// Pair moves are only usable when both variables are flippable.
	pairs := sc.pairs[:0]
	for _, p := range opt.Pairs {
		if _, fa := opt.Frozen[p[0]]; fa {
			continue
		}
		if _, fb := opt.Frozen[p[1]]; fb {
			continue
		}
		pairs = append(pairs, p)
	}
	sc.pairs = pairs
	run.pairs = pairs
	run.pairProb = opt.PairProb
	run.usePairs = len(pairs) > 0 && opt.PairProb > 0

	growAt := opt.Sweeps / 4
	ratio := 1.0
	if opt.Sweeps > 1 {
		ratio = math.Pow(opt.BetaEnd/opt.BetaStart, 1/float64(opt.Sweeps-1))
	}
	beta := opt.BetaStart
	cancelled := false
	for s := 0; s < opt.Sweeps; s++ {
		if opt.Stop != nil && opt.Stop() {
			res.Sweeps = s
			cancelled = true
			break
		}
		if opt.PenaltyGrowth > 1 && growAt > 0 && s > 0 && s%growAt == 0 {
			ev.ScalePenalties(opt.PenaltyGrowth)
			res.PenaltyRescales++
		}
		run.sweep(beta)
		beta *= ratio
		if opt.Progress != nil {
			opt.Progress(s+1, run.bestObj, run.bestFeas)
		}
	}

	// Zero-temperature polish: descend greedily from the best state
	// found until no single flip (or pair co-flip) improves. A cancelled
	// run skips it: the caller wants out now.
	if !opt.NoPolish && !cancelled {
		ev.ResetBits(run.best)
		run.polish()
	}

	res.Flips = run.flips
	res.Accepted = run.accepted
	res.Best = run.best.ToBools(n)
	res.BestObjective, res.BestFeasible = run.bestObj, run.bestFeas
	return res
}

// EstimateSchedule samples random flip deltas from random states and
// derives (betaStart, betaEnd) so that uphill moves of typical size are
// accepted with probability ~0.8 initially and ~1e-4 finally. This is the
// standard auto-tuning used when callers do not provide a schedule.
func EstimateSchedule(m *cqm.Model, penalty float64, rng *rand.Rand) (betaStart, betaEnd float64) {
	n := m.NumVars()
	if n == 0 {
		return 1, 10
	}
	ev := cqm.NewEvaluator(m, penalty)
	state := make([]bool, n)
	var maxUp, sumUp float64
	var count int
	for trial := 0; trial < 8; trial++ {
		for i := range state {
			state[i] = rng.Intn(2) == 0
		}
		ev.Reset(state)
		for k := 0; k < 4*n; k++ {
			d := ev.Flip(cqm.VarID(rng.Intn(n)))
			if d > 0 {
				sumUp += d
				count++
				if d > maxUp {
					maxUp = d
				}
			}
		}
	}
	if count == 0 || sumUp == 0 {
		return 1, 10
	}
	avgUp := sumUp / float64(count)
	// Accept average uphill with p0=0.8 at the start and the largest
	// uphill with p1=1e-4 at the end.
	betaStart = -math.Log(0.8) / avgUp
	betaEnd = -math.Log(1e-4) / math.Max(avgUp, maxUp/8)
	if betaEnd <= betaStart {
		betaEnd = betaStart * 100
	}
	return betaStart, betaEnd
}
