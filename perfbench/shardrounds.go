package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/chameleon"
	"repro/internal/dlb"
	"repro/internal/hybrid"
	"repro/internal/lrp"
	"repro/internal/obs"
	"repro/internal/qlrb"
	"repro/internal/shard"
	"repro/internal/verify"
)

const (
	shardProcs = 256
	shardTasks = 1024
	shardSize  = 16
	// An application run is episodeRounds rounds of one random walk; a
	// pass is episodes independent runs. Plan quality is taken over the
	// first pass, so it depends on --seed only.
	episodeRounds = 8
	episodes      = 5
	// solverSeed is the fixed seed of the sharded solver; the inputs
	// come from --seed.
	solverSeed = 1
)

// randomWalk generates one application run: episodeRounds instances of
// M=shardProcs × shardTasks tasks whose weights take a random walk from
// round to round, starting from continuous weights with scattered hot
// spots.
func randomWalk(rng *rand.Rand) walk {
	tasks := make([]int, shardProcs)
	w := make([]float64, shardProcs)
	for j := range tasks {
		tasks[j] = shardTasks
		w[j] = 1 + 6*rng.Float64()
		if j%97 == 0 {
			w[j] = 12
		}
	}
	rounds := make(walk, episodeRounds)
	for r := range rounds {
		if r > 0 {
			for j := range w {
				w[j] = math.Max(0.5, w[j]+0.5*rng.NormFloat64())
			}
		}
		in, err := lrp.NewInstance(tasks, append([]float64(nil), w...))
		if err != nil {
			panic(err) // generated weights are always valid
		}
		rounds[r] = in
	}
	return rounds
}

// walk replays the generated rounds to dlb.Run.
type walk []*lrp.Instance

func (w walk) Iteration(it int) (*lrp.Instance, error) { return w[it], nil }

// shardRounds: a single caller runs the BSP application under dlb.Run,
// rebalancing every round with the sharded solver. The pass of
// independent application runs repeats until the measured time is up
// (the first pass always completes); at a fixed seed every repetition
// of a run must produce the same result.
func shardRounds(e *env, traced bool) (*phase, error) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	workers := runtime.NumCPU()
	p := &phase{}
	var walks []walk
	var method *shard.Rebalancer
	for i := 0; i < setupTrials; i++ {
		runtime.GC()
		start := time.Now()
		rng := rand.New(rand.NewSource(e.seed))
		walks = make([]walk, episodes)
		for k := range walks {
			walks[k] = randomWalk(rng)
		}
		method = shard.New("Shard_s16", shard.Options{
			Size:    shardSize,
			Workers: workers,
			Build:   qlrb.BuildOptions{Form: qlrb.QCQM1, K: -1},
			Hybrid: hybrid.Options{
				Reads: 1, Sweeps: 64, Seed: solverSeed,
				Presolve: true, Penalty: 5, PenaltyGrowth: 4,
				Timing: hybrid.DefaultTimingModel(),
			},
			Obs: reg,
		})
		// One untimed call fills the solver's pools and lazy layouts.
		if _, err := method.Rebalance(ctx, walks[0][0]); err != nil {
			return nil, fmt.Errorf("shard-rounds warm-up: %w", err)
		}
		p.setup = append(p.setup, time.Since(start).Seconds())
	}

	sw := &stopwatch{inner: method}
	cfg := dlb.Config{Runtime: chameleon.DefaultConfig(), Iterations: episodeRounds, Obs: reg}
	regBefore := reg.Snapshot()
	firstPass := make([]dlb.Result, 0, episodes)
	var loopWall, sim time.Duration
	var baselineMs, makespanMs float64
	migrated, degraded := 0, 0
	start := time.Now()
	deadline := start.Add(e.seconds)
	for ep := 0; ep < episodes || time.Now().Before(deadline); ep++ {
		k := ep % episodes
		sw.ins, sw.plans = sw.ins[:0], sw.plans[:0]
		t0 := time.Now()
		res, err := dlb.Run(ctx, walks[k], sw, cfg)
		loopWall += time.Since(t0)
		p.attempted += episodeRounds
		for i := len(res.Iterations); i < episodeRounds; i++ {
			p.fail("run %d round %d: dlb.Run: %v", ep, i, err)
		}
		for i, ir := range res.Iterations {
			if ir.Degraded {
				degraded++
				p.fail("run %d round %d: degraded: %v", ep, i, ir.Err)
				continue
			}
			in, plan := sw.ins[i], sw.plans[i]
			if rep := verify.Plan(in, plan, -1, verify.Options{}); !rep.Ok() {
				p.fail("run %d round %d: plan fails verify.Plan: %v", ep, i, rep.Err())
				continue
			}
			migrated += ir.Migrated
			if ep < episodes {
				p.imbalance = append(p.imbalance, lrp.Evaluate(in, plan).Imbalance)
			}
			if traced {
				el, err := resimulate(cfg.Runtime, in, plan)
				if err != nil {
					return nil, err
				}
				sim += el
			}
		}
		if err != nil {
			break
		}
		if ep < episodes {
			firstPass = append(firstPass, res)
			baselineMs += res.TotalBaselineMs
			makespanMs += res.TotalMakespanMs
		} else if !sameRun(firstPass[k], res) {
			p.fail("run %d: result differs from run %d on the same inputs and seed", ep, k)
		}
	}
	p.wall = time.Since(start)
	p.latMs = sw.lat
	if makespanMs > 0 {
		p.speedup = []float64{baselineMs / makespanMs}
	}
	if !traced {
		return p, nil
	}
	last := method.LastStats
	d := regDelta{regBefore, reg.Snapshot()}
	_, subsolveMs := d.span("shard.subsolve")
	rebalance := sw.busy.Seconds()
	vals := map[string]float64{
		"shard.rebalance_s":      rebalance,
		"shard.groups":           float64(last.Groups),
		"shard.levels":           float64(last.Levels),
		"shard.sub_solves":       float64(last.SubSolves),
		"shard.max_shard_qubits": float64(last.MaxShardQubits),
		"shard.subsolve_s":       subsolveMs / 1000,
		"shard.coordinate_ms":    d.spanMeanMs("shard.coordinate"),
		"shard.merge_ms":         d.spanMeanMs("shard.merge"),
		"shard.verify_ms":        d.spanMeanMs("shard.verify"),
		"shard.parallel_eff":     subsolveMs / 1000 / (float64(workers) * rebalance),
		"dlb.migrated_tasks":     float64(migrated) / float64(max(1, len(sw.lat))),
		"dlb.degraded_rounds":    float64(degraded),
		"dlb.sim_s":              sim.Seconds(),
		"budget.residual_frac":   (loopWall - sw.busy - sim).Seconds() / loopWall.Seconds(),
	}
	qlrbLayer(d, vals)
	fmt.Printf("  budget: rebalance %.3f s + sim %.3f s = %.3f s vs loop wall %.3f s; residual %.3f s (%.1f%%) %s\n",
		rebalance, sim.Seconds(), rebalance+sim.Seconds(), loopWall.Seconds(),
		(loopWall - sw.busy - sim).Seconds(), 100*vals["budget.residual_frac"], budgetVerdict(vals["budget.residual_frac"]))
	p.layers = layerMetrics(vals)
	return p, nil
}

// resimulate times what dlb.Run simulates for one round, the baseline
// and the planned execution, outside the timed loop: dlb.sim_s is
// measured on its own rather than taken as the loop's remainder.
func resimulate(cfg chameleon.Config, in *lrp.Instance, plan *lrp.Plan) (time.Duration, error) {
	start := time.Now()
	base, err := chameleon.New(cfg, in)
	if err != nil {
		return 0, err
	}
	base.RunIteration()
	rt, err := chameleon.New(cfg, in)
	if err != nil {
		return 0, err
	}
	if _, err := rt.ApplyPlan(plan); err != nil {
		return 0, err
	}
	rt.RunIteration()
	return time.Since(start), nil
}

// sameRun reports whether two application runs over the same inputs
// produced the same rounds.
func sameRun(a, b dlb.Result) bool {
	if a.Speedup != b.Speedup || len(a.Iterations) != len(b.Iterations) {
		return false
	}
	for i := range a.Iterations {
		x, y := a.Iterations[i], b.Iterations[i]
		if x.Migrated != y.Migrated || x.MakespanMs != y.MakespanMs || x.Imbalance != y.Imbalance {
			return false
		}
	}
	return true
}
