// Package shard solves large load-rebalancing instances hierarchically.
//
// The paper's CQM formulations scale quadratically in the process count
// (QCQM1 needs M(M-1)·|C| qubits), which caps the tractable monolithic
// regime at tens of processes. Sharding recovers scale by decomposition:
//
//  1. Partition the M processes into size-bounded groups with a
//     load-serpentine deal (Partition), so each sub-CQM stays inside
//     the paper's tractable regime.
//  2. Solve every group's sub-instance concurrently through the shared
//     qlrb.Pipeline stages, each shard under a clock budget carved from
//     the parent's budget and a migration budget carved from K.
//  3. Coordinate across groups with a small top-level solve over the
//     group load aggregates (one pseudo-process per group) — solved
//     recursively through shard.Solve itself when the coarse instance
//     is uniform, classically (ProactLB) otherwise — and translate the
//     coarse inter-group moves into concrete task migrations.
//  4. Repair and verify: re-prove conservation, non-negativity and the
//     migration cap through verify.Plan before the merged plan leaves
//     the package. No unverified shard merge escapes.
//
// A group's aggregate load is invariant under its intra-group moves, so
// stages 2 and 3 are independent and run concurrently in one worker
// pool.
package shard

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/balancer"
	"repro/internal/hybrid"
	"repro/internal/lrp"
	"repro/internal/obs"
	"repro/internal/qlrb"
	"repro/internal/solve"
	"repro/internal/verify"
)

// DefaultSize is the default maximum group size. Eight processes keep a
// QCQM1 sub-model around 8·7·|C| logical qubits — comfortably inside
// the regime the paper's experiments cover.
const DefaultSize = 8

// Options configures a hierarchical sharded solve.
type Options struct {
	// Size caps how many processes one group (and hence one sub-CQM)
	// may hold. Values below 2 fall back to DefaultSize.
	Size int
	// Workers caps how many group solves run concurrently (the
	// coordination solve shares the same pool). <= 0 means GOMAXPROCS.
	Workers int
	// Budget bounds the whole hierarchical solve on the injected clock
	// (0 = none). Each wave of concurrent sub-solves receives an equal
	// carve-out, so the total respects the parent budget regardless of
	// how many shards the instance splits into. Note the annealer's
	// cooling schedule is calibrated to Hybrid.Sweeps: a budget that
	// interrupts reads mid-schedule leaves them in the hot phase and
	// their best sample near the warm start, so size Hybrid.Sweeps to
	// complete within the per-shard carve-out and let the budget be the
	// backstop, not the pace-setter.
	Budget time.Duration
	// Build configures the per-shard CQM construction. Build.K is the
	// GLOBAL migration cap: half is split across the groups
	// proportionally to their task counts, half funds the coordination
	// level, and the final repair pass re-imposes the global cap.
	Build qlrb.BuildOptions
	// Hybrid configures the per-shard sampling backend. Hybrid.Workers
	// of 0 is forced to 1 for sub-solves: parallelism comes from
	// solving shards concurrently, not from oversubscribing each one.
	// A non-zero Hybrid.Seed is re-derived per shard so sibling solves
	// decorrelate while the whole hierarchy stays reproducible.
	Hybrid hybrid.Options
	// Wrap, when non-nil, decorates every shard's solver — the same
	// middleware attachment point qlrb.Pipeline exposes.
	Wrap func(solve.Solver) solve.Solver
	// Verify tunes the verification gates. MaxLoad, when set, is
	// enforced on the final merged plan only (sub-instances see the
	// tolerance but not the cap: a group may be transiently over the
	// global cap until coordination moves load out of it).
	Verify verify.Options
	// Obs, when non-nil, receives shard.* spans and counters plus every
	// per-shard pipeline trace. Nil disables instrumentation.
	Obs *obs.Registry
	// Clock is the time source budgets are measured on (nil = real).
	Clock solve.Clock
}

func (opt Options) withDefaults() Options {
	if opt.Size < 2 {
		opt.Size = DefaultSize
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.Clock == nil {
		opt.Clock = solve.Real()
	}
	return opt
}

// Stats reports what the hierarchy did.
type Stats struct {
	// Procs and Groups describe the top-level decomposition.
	Procs, Groups int
	// Levels is the depth of the solve hierarchy (1 = monolithic base
	// case, 2 = groups + one coordination level, ...).
	Levels int
	// SubSolves counts pipeline (build→sample→decode→verify) runs
	// across all levels.
	SubSolves int
	// MaxShardQubits is the largest sub-CQM any single solve built —
	// the number that must stay inside the tractable regime.
	MaxShardQubits int
	// CoordMigrated counts task-units moved across group boundaries by
	// coordination levels.
	CoordMigrated int
	// SkippedMoves counts coordination task-units dropped by the
	// load-cap guard (no destination could take the task without
	// exceeding the baseline maximum load).
	SkippedMoves int
	// Fallbacks counts shards whose pipeline failed and were solved by
	// the classical fallback instead.
	Fallbacks int
	// Repaired reports whether any merge needed the repair pass
	// (conservation fix-up or global migration-cap projection).
	Repaired bool
	// LoadCapOK reports whether the merged plan keeps every process at
	// or below the instance's baseline maximum load.
	LoadCapOK bool
	// Wall is the end-to-end time on the injected clock.
	Wall time.Duration
}

// Solve rebalances the instance hierarchically and returns a verified
// migration plan. The instance must be uniform (the same task count on
// every process), like the monolithic qlrb.Solve. Cancelling ctx stops
// in-flight sub-solves at their next sweep boundary; their best partial
// samples still merge into a feasible plan.
func Solve(ctx context.Context, in *lrp.Instance, opt Options) (*lrp.Plan, Stats, error) {
	opt = opt.withDefaults()
	if in == nil || in.NumProcs() < 2 {
		return nil, Stats{}, fmt.Errorf("shard: instance must have at least 2 processes")
	}
	if _, ok := in.Uniform(); !ok {
		return nil, Stats{}, fmt.Errorf("shard: instance must be uniform (equal task counts per process)")
	}
	start := opt.Clock.Now()
	span := opt.Obs.StartSpan("shard.solve")
	plan, st, err := solveLevel(ctx, in, opt, opt.Budget)
	st.Procs = in.NumProcs()
	st.Wall = opt.Clock.Since(start)
	if err != nil {
		span.Set("error", err.Error()).End()
		return nil, st, err
	}
	// The load cap is reported (and only enforced when the caller set
	// Verify.MaxLoad), mirroring the monolithic gate: conservation,
	// non-negativity and the migration cap are the hard invariants.
	cap := verify.Options{Tol: opt.Verify.Tol, MaxLoad: in.MaxLoad()}
	st.LoadCapOK = verify.Plan(in, plan, opt.Build.K, cap).Ok()
	if !st.LoadCapOK {
		opt.Obs.Counter("shard.loadcap_misses").Inc()
	}
	span.Set("procs", st.Procs).Set("groups", st.Groups).Set("levels", st.Levels).
		Set("sub_solves", st.SubSolves).Set("fallbacks", st.Fallbacks).
		Set("coord_migrated", st.CoordMigrated).End()
	return plan, st, nil
}

// solveLevel solves one level of the hierarchy: monolithically when the
// instance fits in a single group, otherwise by partition → concurrent
// group solves + coordination → translate → repair → verify.
func solveLevel(ctx context.Context, in *lrp.Instance, opt Options, budget time.Duration) (*lrp.Plan, Stats, error) {
	m := in.NumProcs()
	if m <= opt.Size {
		return solveBase(ctx, in, opt, budget)
	}

	groups := Partition(in, opt.Size)
	g := len(groups)
	st := Stats{Groups: g}

	// Budget carving: groups and the coordination solve share one pool
	// of opt.Workers, so the level runs in ceil((g+1)/workers) waves;
	// giving each task budget/waves keeps the level inside budget.
	waves := (g + 1 + opt.Workers - 1) / opt.Workers
	var perTask time.Duration
	if budget > 0 {
		perTask = budget / time.Duration(waves)
	}

	// Migration-budget carving: half of K across the groups in
	// proportion to their task counts, half to coordination. The final
	// repair pass re-imposes the global K, so the split is a guide, not
	// the enforcement mechanism.
	k := opt.Build.K
	coordK := k
	intraK := make([]int, g)
	if k < 0 {
		for i := range intraK {
			intraK[i] = -1
		}
	} else {
		coordK = k / 2
		total := in.NumTasks()
		for i, procs := range groups {
			gt := 0
			for _, j := range procs {
				gt += in.Tasks[j]
			}
			if total > 0 {
				intraK[i] = (k - coordK) * gt / total
			}
		}
	}

	subPlans := make([]*lrp.Plan, g)
	results := make([]groupResult, g)
	var coordPlan *lrp.Plan
	var coordStats Stats
	var coordErr error

	sem := make(chan struct{}, opt.Workers)
	var wg sync.WaitGroup
	run := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			f()
		}()
	}
	for gi := range groups {
		gi := gi
		run(func() {
			results[gi] = solveGroup(ctx, in, groups[gi], intraK[gi], perTask, gi, opt)
		})
	}
	// Group aggregate loads are invariant under intra-group moves, so
	// coordination over the aggregates runs concurrently with them.
	run(func() {
		coordPlan, coordStats, coordErr = coordinate(ctx, in, groups, coordK, perTask, opt)
	})
	wg.Wait()

	maxLevels := 1
	for gi, r := range results {
		if r.err != nil {
			return nil, st, fmt.Errorf("shard: group %d: %w", gi, r.err)
		}
		subPlans[gi] = r.plan
		st.SubSolves += r.solves
		if r.fallback {
			st.Fallbacks++
		}
		if r.qubits > st.MaxShardQubits {
			st.MaxShardQubits = r.qubits
		}
	}
	if coordErr != nil {
		return nil, st, fmt.Errorf("shard: coordination: %w", coordErr)
	}
	st.SubSolves += coordStats.SubSolves
	st.Fallbacks += coordStats.Fallbacks
	st.CoordMigrated += coordStats.CoordMigrated
	st.SkippedMoves += coordStats.SkippedMoves
	st.Repaired = st.Repaired || coordStats.Repaired
	if coordStats.MaxShardQubits > st.MaxShardQubits {
		st.MaxShardQubits = coordStats.MaxShardQubits
	}
	if coordStats.Levels+1 > maxLevels {
		maxLevels = coordStats.Levels + 1
	}
	st.Levels = maxLevels

	mspan := opt.Obs.StartSpan("shard.merge")
	merged, err := lrp.MergePlans(in, groups, subPlans)
	if err != nil {
		mspan.Set("error", err.Error()).End()
		return nil, st, fmt.Errorf("shard: %w", err)
	}
	applied, skipped := translate(in, merged, groups, coordPlan)
	st.CoordMigrated += applied
	st.SkippedMoves += skipped
	opt.Obs.Counter("shard.coord_migrations").Add(int64(applied))
	if skipped > 0 {
		opt.Obs.Counter("shard.skipped_moves").Add(int64(skipped))
	}

	// Repair pass: conservation first, then project onto the global
	// migration cap. Both are no-ops on the expected path — translate
	// preserves conservation by construction and the K carve-outs sum
	// to at most K — but the merge must not depend on that being true.
	if err := merged.Validate(in); err != nil {
		if rerr := merged.Repair(in); rerr != nil {
			mspan.Set("error", rerr.Error()).End()
			return nil, st, fmt.Errorf("shard: merged plan unrepairable: %v (after %v)", rerr, err)
		}
		st.Repaired = true
	}
	if k >= 0 && merged.Migrated() > k {
		merged.CapMigrations(in, k)
		st.Repaired = true
	}
	mspan.Set("migrated", merged.Migrated()).Set("repaired", st.Repaired).End()

	// Mandatory gate: re-prove the invariants through the independent
	// verifier before the merge leaves this level.
	vspan := opt.Obs.StartSpan("shard.verify")
	rep := verify.Plan(in, merged, k, verify.Options{Tol: opt.Verify.Tol, MaxLoad: opt.Verify.MaxLoad})
	vspan.Set("ok", rep.Ok()).End()
	if !rep.Ok() {
		opt.Obs.Counter("shard.rejected_plans").Inc()
		return nil, st, fmt.Errorf("shard: merged plan failed verification: %w", rep.Err())
	}
	return merged, st, nil
}

// solveBase is the hierarchy's leaf: a monolithic run through the
// shared qlrb.Pipeline stages.
func solveBase(ctx context.Context, in *lrp.Instance, opt Options, budget time.Duration) (*lrp.Plan, Stats, error) {
	pipe := &qlrb.Pipeline{
		Build:  opt.Build,
		Hybrid: opt.Hybrid,
		Wrap:   opt.Wrap,
		Verify: opt.Verify,
		Obs:    opt.Obs,
		Opts:   levelOpts(opt, budget),
	}
	pipe.WarmPlans = classicalWarm(ctx, pipe, in)
	plan, ps, err := pipe.Run(ctx, in)
	if err != nil {
		return nil, Stats{Groups: 1, Levels: 1}, err
	}
	return plan, Stats{
		Groups:         1,
		Levels:         1,
		SubSolves:      1,
		MaxShardQubits: ps.Qubits,
		Repaired:       ps.Repaired,
	}, nil
}

func levelOpts(opt Options, budget time.Duration) []solve.Option {
	opts := []solve.Option{solve.WithClock(opt.Clock)}
	if budget > 0 {
		opts = append(opts, solve.WithBudget(budget))
	}
	return opts
}

type groupResult struct {
	plan     *lrp.Plan // nil = keep the group's tasks home
	qubits   int
	solves   int
	fallback bool
	err      error
}

// solveGroup extracts one group's sub-instance and runs it through the
// pipeline stages. A failed pipeline degrades to the classical greedy
// fallback projected onto the group's migration budget — one sick shard
// must not sink the whole hierarchy.
func solveGroup(ctx context.Context, in *lrp.Instance, procs []int, k int, budget time.Duration, gi int, opt Options) groupResult {
	if len(procs) < 2 {
		return groupResult{} // singleton: nothing to rebalance, stays home
	}
	span := opt.Obs.StartSpan("shard.subsolve")
	sub, err := in.Extract(procs)
	if err != nil {
		span.Set("error", err.Error()).End()
		return groupResult{err: err}
	}
	build := opt.Build
	build.K = k
	pipe := &qlrb.Pipeline{
		Build:  build,
		Hybrid: shardHybrid(opt.Hybrid, gi),
		Wrap:   opt.Wrap,
		Verify: verify.Options{Tol: opt.Verify.Tol},
		Obs:    opt.Obs,
		Opts:   levelOpts(opt, budget),
	}
	pipe.WarmPlans = classicalWarm(ctx, pipe, sub)
	plan, ps, err := pipe.Run(ctx, sub)
	if err != nil {
		// Classical fallback: greedy LPT on the sub-instance, projected
		// onto the group's migration budget.
		opt.Obs.Counter("shard.fallbacks").Inc()
		span.Set("group", gi).Set("fallback", err.Error())
		fb, ferr := balancer.Greedy{}.Rebalance(ctx, sub)
		if ferr != nil {
			span.End()
			return groupResult{solves: 1, fallback: true} // keep home
		}
		if k >= 0 && fb.Migrated() > k {
			fb.CapMigrations(sub, k)
		}
		span.End()
		return groupResult{plan: fb, solves: 1, fallback: true}
	}
	span.Set("group", gi).Set("procs", len(procs)).Set("qubits", ps.Qubits).End()
	return groupResult{plan: plan, qubits: ps.Qubits, solves: 1}
}

// classicalWarm runs the cheap classical methods on a (sub-)instance
// and returns their plans as sampler warm starts — the paper's hybrid
// protocol ("classical algorithms run first and guide the hybrid
// experiments") applied at every node of the hierarchy. Plans over the
// migration cap are projected by the pipeline's warm-start stage;
// failures just mean fewer warm starts. When pipe's sampler reads no
// warm start past the identity plan (one read reads only that one), the
// methods are not run at all.
func classicalWarm(ctx context.Context, pipe *qlrb.Pipeline, in *lrp.Instance) []*lrp.Plan {
	if !pipe.ReadsWarmPlans() {
		return nil
	}
	var warm []*lrp.Plan
	if p, err := (balancer.ProactLB{}).Rebalance(ctx, in); err == nil {
		warm = append(warm, p)
	}
	if p, err := (balancer.Greedy{}).Rebalance(ctx, in); err == nil {
		warm = append(warm, p)
	}
	return warm
}

// shardHybrid derives one shard's sampler options: sibling shards get
// decorrelated seeds (reproducibly, when the caller seeded the solve)
// and single-worker sampling — the hierarchy's parallelism comes from
// solving shards concurrently, not from oversubscribing each shard.
func shardHybrid(h hybrid.Options, gi int) hybrid.Options {
	if h.Seed != 0 {
		h.Seed += int64(gi+1) * 1_000_003
	}
	if h.Workers == 0 {
		h.Workers = 1
	}
	return h
}

// coordinate solves the inter-group problem over the coarse instance
// (one pseudo-process per group). When the coarse instance is itself
// uniform — equal group sizes on a uniform parent — it recurses through
// the sharded solve, giving a true multi-level hierarchy; otherwise it
// falls back to the classical ProactLB, which moves only excess load.
// Either way the coarse plan is verified before it is translated.
func coordinate(ctx context.Context, in *lrp.Instance, groups [][]int, coordK int, budget time.Duration, opt Options) (*lrp.Plan, Stats, error) {
	span := opt.Obs.StartSpan("shard.coordinate")
	coarse, err := coarseInstance(in, groups)
	if err != nil {
		span.Set("error", err.Error()).End()
		return nil, Stats{}, err
	}
	if _, ok := coarse.Uniform(); ok && coarse.NumProcs() >= 2 {
		copt := opt
		copt.Build.K = coordK
		copt.Hybrid = shardHybrid(opt.Hybrid, len(groups))
		// Coarse pseudo-process loads are whole-group aggregates; a
		// per-process load cap must not gate them.
		copt.Verify.MaxLoad = 0
		plan, cst, err := solveLevel(ctx, coarse, copt, budget)
		if err == nil {
			span.Set("mode", "hierarchical").Set("migrated", plan.Migrated()).End()
			return plan, cst, nil
		}
		// Fall through to the classical path; the error is recorded.
		span.Set("hierarchical_error", err.Error())
	}
	plan, err := balancer.ProactLB{}.Rebalance(ctx, coarse)
	if err != nil {
		span.Set("error", err.Error()).End()
		return nil, Stats{}, err
	}
	if coordK >= 0 && plan.Migrated() > coordK {
		plan.CapMigrations(coarse, coordK)
	}
	if rep := verify.Plan(coarse, plan, coordK, verify.Options{Tol: opt.Verify.Tol}); !rep.Ok() {
		span.Set("error", rep.Err().Error()).End()
		return nil, Stats{}, fmt.Errorf("coarse plan failed verification: %w", rep.Err())
	}
	span.Set("mode", "classical").Set("migrated", plan.Migrated()).End()
	return plan, Stats{Levels: 1}, nil
}

// translate applies the coarse coordination plan to the merged
// fine-grained plan: each coarse task-unit moving from group h to group
// g becomes one concrete task migration from the most loaded process of
// h to the least loaded process of g. The task is chosen to fill the
// receiver toward the average load without overshooting (ProactLB's
// rounding rule), and a move is skipped entirely when no task on the
// donor fits under the baseline maximum load at the destination —
// coordination must never manufacture a new hotspot. Column sums are
// untouched, so conservation is preserved by construction. Returns
// (applied, skipped) task-units.
func translate(in *lrp.Instance, merged *lrp.Plan, groups [][]int, coord *lrp.Plan) (applied, skipped int) {
	if coord == nil {
		return 0, 0
	}
	const tol = 1e-9
	cap := in.MaxLoad()
	lavg := in.AvgLoad()
	loads := merged.Loads(in)
	rows := merged.RowCounts()
	g := len(groups)
	for dst := 0; dst < g; dst++ {
		for src := 0; src < g; src++ {
			if dst == src {
				continue
			}
			units := coord.X[dst][src]
			for u := 0; u < units; u++ {
				if !applyUnit(in, merged, groups[dst], groups[src], loads, rows, lavg, cap+tol) {
					skipped += units - u
					break
				}
				applied++
			}
		}
	}
	return applied, skipped
}

// applyUnit moves one task from the most loaded process of src to the
// least loaded process of dst. Among the donor's tasks that fit under
// the load cap at the receiver, it prefers the heaviest one that leaves
// the receiver within half its own weight of the average load (so the
// receiver fills toward L_avg without becoming the next hotspot),
// falling back to the lightest fitting task when every candidate would
// overshoot. Reports false when no move fits at all.
func applyUnit(in *lrp.Instance, merged *lrp.Plan, dst, src []int, loads []float64, rows []int, lavg, cap float64) bool {
	donor := -1
	for _, i := range src {
		if rows[i] > 0 && (donor < 0 || loads[i] > loads[donor]) {
			donor = i
		}
	}
	if donor < 0 {
		return false
	}
	recv := dst[0]
	for _, i := range dst {
		if loads[i] < loads[recv] {
			recv = i
		}
	}
	origin, lightest := -1, -1
	for j, cnt := range merged.X[donor] {
		if cnt <= 0 {
			continue
		}
		w := in.Weight[j]
		if loads[recv]+w > cap {
			continue
		}
		if lightest < 0 || w < in.Weight[lightest] {
			lightest = j
		}
		if loads[recv]+w <= lavg+w/2 {
			if origin < 0 || w > in.Weight[origin] {
				origin = j
			}
		}
	}
	if origin < 0 {
		origin = lightest
	}
	if origin < 0 {
		return false
	}
	merged.X[donor][origin]--
	merged.X[recv][origin]++
	w := in.Weight[origin]
	loads[donor] -= w
	loads[recv] += w
	rows[donor]--
	rows[recv]++
	return true
}
