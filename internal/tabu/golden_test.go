package tabu

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cqm"
	"repro/internal/refeval"
)

// refSearch is the historical tabu Search implementation, verbatim, on
// the frozen reference evaluator. The golden test requires the rewritten
// CSR/bitset search to reproduce its trajectory exactly at fixed seeds.
func refSearch(m *cqm.Model, opt Options) Result {
	n := m.NumVars()
	if opt.Iterations <= 0 {
		opt.Iterations = 50 * max(1, n)
	}
	if opt.Tenure <= 0 {
		opt.Tenure = n/10 + 7
	}
	if opt.Penalty <= 0 {
		opt.Penalty = 1
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	ev := refeval.New(m, opt.Penalty)
	state := make([]bool, n)
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

	pool := make([]cqm.VarID, 0, n)
	for i := 0; i < n; i++ {
		if _, frozen := opt.Frozen[cqm.VarID(i)]; !frozen {
			pool = append(pool, cqm.VarID(i))
		}
	}

	res := Result{}
	best := ev.Assignment()
	bestObj := ev.ObjectiveValue()
	bestFeas := ev.Feasible(feasTol)
	bestEnergy := ev.Energy()
	record := func() {
		feas := ev.Feasible(feasTol)
		obj := ev.ObjectiveValue()
		if (feas && !bestFeas) || (feas == bestFeas && obj < bestObj) {
			bestFeas, bestObj = feas, obj
			copy(best, ev.Assignment())
		}
	}
	if len(pool) == 0 {
		res.Best, res.BestObjective, res.BestFeasible = best, bestObj, bestFeas
		return res
	}

	tabuUntil := make([]int, n)
	for it := 1; it <= opt.Iterations; it++ {
		if opt.Stop != nil && opt.Stop() {
			break
		}
		bestVar := cqm.VarID(-1)
		bestDelta := 0.0
		found := false
		for _, v := range pool {
			delta := ev.FlipDelta(v)
			if tabuUntil[v] >= it && ev.Energy()+delta >= bestEnergy-1e-12 {
				continue
			}
			if !found || delta < bestDelta || (delta == bestDelta && rng.Intn(2) == 0) {
				found = true
				bestVar, bestDelta = v, delta
			}
		}
		if !found {
			break
		}
		ev.Flip(bestVar)
		res.Moves++
		tabuUntil[bestVar] = it + opt.Tenure
		if e := ev.Energy(); e < bestEnergy {
			bestEnergy = e
		}
		record()
		if opt.Progress != nil {
			opt.Progress(it, bestObj, bestFeas)
		}
	}
	res.Best, res.BestObjective, res.BestFeasible = best, bestObj, bestFeas
	return res
}

// goldenModel builds a small constrained model with dyadic fractional
// coefficients, on which the reference and rewritten evaluators perform
// exact arithmetic in lockstep.
func goldenModel(seed int64) *cqm.Model {
	rng := rand.New(rand.NewSource(seed))
	m := cqm.New()
	n := 10 + rng.Intn(16)
	vars := make([]cqm.VarID, n)
	for i := range vars {
		vars[i] = m.AddBinary("x")
	}
	coef := func() float64 { return float64(rng.Intn(13)-6) + 0.25*float64(rng.Intn(4)) }
	for k := 0; k < 2*n; k++ {
		m.AddObjectiveQuad(vars[rng.Intn(n)], vars[rng.Intn(n)], coef())
	}
	for k := 0; k < 2; k++ {
		var e cqm.LinExpr
		for t := 0; t < 3+rng.Intn(n/2); t++ {
			e.Add(vars[rng.Intn(n)], coef())
		}
		e.Offset = coef()
		m.AddObjectiveSquared(e)
	}
	for k := 0; k < 3; k++ {
		var e cqm.LinExpr
		for t := 0; t < 3+rng.Intn(n/2); t++ {
			e.Add(vars[rng.Intn(n)], coef())
		}
		m.AddConstraint("c", e, cqm.Sense(rng.Intn(3)), coef())
	}
	return m
}

// qcqm1Model builds a QCQM1-shaped model inline (internal/qlrb imports
// this package, so its tests cannot call qlrb.Build): procs processes
// with 2^bits-1 tasks each, pair (dst i, src j != i) migrating
// sum_l 2^l x[i,j,l] tasks, one squared load deviation per process, and
// per-process outcap and loadcap constraints. Every variable sits in
// two squares and three constraints, so at procs=16 a flip touches
// about half of the model and its flip neighbourhood is shorter than
// the pool. Weights are dyadic and procs is a power of two, so every
// coefficient and offset is exact.
func qcqm1Model(procs, bits int, seed int64) *cqm.Model {
	rng := rand.New(rand.NewSource(seed))
	tasks := float64(int(1)<<bits - 1)
	w := make([]float64, procs)
	load := make([]float64, procs)
	total, lmax := 0.0, 0.0
	for j := range w {
		w[j] = float64(1+rng.Intn(16)) / 4
		load[j] = w[j] * tasks
		total += load[j]
		lmax = max(lmax, load[j])
	}
	avg := total / float64(procs)

	m := cqm.New()
	first := make([][]cqm.VarID, procs) // first bit of pair (dst i, src j)
	for i := range first {
		first[i] = make([]cqm.VarID, procs)
		for j := range first[i] {
			if i == j {
				continue
			}
			first[i][j] = m.AddBinary("x")
			for l := 1; l < bits; l++ {
				m.AddBinary("x")
			}
		}
	}
	count := func(e *cqm.LinExpr, i, j int, coef float64) {
		for l := 0; l < bits; l++ {
			e.Add(first[i][j]+cqm.VarID(l), coef*float64(int(1)<<l))
		}
	}
	for i := 0; i < procs; i++ {
		newLoad := cqm.LinExpr{Offset: load[i]}
		var out cqm.LinExpr
		for j := 0; j < procs; j++ {
			if j == i {
				continue
			}
			count(&newLoad, j, i, -w[i]) // tasks leaving i
			count(&newLoad, i, j, w[j])  // tasks arriving at i
			count(&out, j, i, 1)
		}
		dev := newLoad.Clone()
		dev.Offset -= avg
		m.AddObjectiveSquared(dev)
		m.AddConstraint("outcap", out, cqm.Le, tasks)
		m.AddConstraint("loadcap", newLoad, cqm.Le, lmax)
	}
	return m
}

func TestSearchMatchesGoldenTrajectory(t *testing.T) {
	type variant struct {
		tag string
		opt Options
	}
	type golden struct {
		name     string
		m        *cqm.Model
		variants []variant
	}
	var cases []golden
	for seed := int64(0); seed < 6; seed++ {
		m := goldenModel(300 + seed)
		cases = append(cases, golden{fmt.Sprintf("golden/%d", seed), m, []variant{
			{"plain", Options{Iterations: 200, Seed: seed, Penalty: 2}},
			{"short-tenure", Options{Iterations: 150, Tenure: 2, Seed: seed, Penalty: 1.5}},
			{"frozen", Options{Iterations: 150, Seed: seed, Penalty: 2,
				Frozen: map[cqm.VarID]bool{0: true, 3: false}}},
			{"warm-start", Options{Iterations: 100, Seed: seed, Penalty: 1,
				Initial: make([]bool, m.NumVars())}},
		}})
	}
	for seed := int64(0); seed < 3; seed++ {
		m := qcqm1Model(16, 2, seed)
		cases = append(cases, golden{fmt.Sprintf("qcqm1/%d", seed), m, []variant{
			{"plain", Options{Iterations: 300, Seed: seed, Penalty: 2}},
			{"frozen", Options{Iterations: 300, Seed: seed, Penalty: 2,
				Frozen: map[cqm.VarID]bool{0: true, 7: false, 100: true, 479: false}}},
			{"warm-start", Options{Iterations: 200, Seed: seed, Penalty: 1,
				Initial: make([]bool, m.NumVars())}},
		}})
	}
	for _, c := range cases {
		m := c.m
		for _, v := range c.variants {
			want := refSearch(m, v.opt)
			got := Search(m, v.opt)
			compare := func(tag string, got Result) {
				t.Helper()
				if got.BestObjective != want.BestObjective ||
					got.BestFeasible != want.BestFeasible ||
					got.Moves != want.Moves {
					t.Errorf("%s: (objective, feasible, moves) = (%v, %v, %d), golden (%v, %v, %d)",
						tag, got.BestObjective, got.BestFeasible, got.Moves,
						want.BestObjective, want.BestFeasible, want.Moves)
				}
				for i := range want.Best {
					if got.Best[i] != want.Best[i] {
						t.Errorf("%s: Best[%d] = %v, golden %v", tag, i, got.Best[i], want.Best[i])
						break
					}
				}
			}
			tag := c.name + "/" + v.tag
			compare(tag, got)
			// Pooled-scratch rerun must be identical.
			compare(tag+"/pooled-rerun", Search(m, v.opt))
		}
	}
}

// TestDeltaCacheMatchesFlipDelta is the differential test of the delta
// cache: after every step, either the cache is marked stale (the next
// scan recomputes every delta) or the cached delta of every pool
// variable equals a fresh FlipDelta on the current state, bit for bit.
// The QCQM1-shaped model must take the neighbourhood-refresh path and
// benchModel, where one square and one constraint span every variable,
// the dense rescan path on every step.
func TestDeltaCacheMatchesFlipDelta(t *testing.T) {
	type tc struct {
		name                  string
		m                     *cqm.Model
		opt                   Options
		wantSparse, wantDense bool // path must be taken on some step / every step
	}
	var cases []tc
	for seed := int64(0); seed < 6; seed++ {
		cases = append(cases, tc{name: fmt.Sprintf("golden/%d", seed), m: goldenModel(300 + seed),
			opt: Options{Iterations: 200, Seed: seed, Penalty: 2}})
	}
	for seed := int64(0); seed < 2; seed++ {
		cases = append(cases,
			tc{name: fmt.Sprintf("qcqm1/%d", seed), m: qcqm1Model(16, 2, seed),
				opt: Options{Iterations: 400, Seed: seed, Penalty: 2}, wantSparse: true},
			tc{name: fmt.Sprintf("qcqm1-frozen/%d", seed), m: qcqm1Model(16, 2, seed),
				opt: Options{Iterations: 400, Seed: seed, Penalty: 2,
					Frozen: map[cqm.VarID]bool{1: true, 2: false, 300: true}}, wantSparse: true})
	}
	cases = append(cases, tc{name: "bench", m: benchModel(),
		opt: Options{Iterations: 400, Seed: 1, Penalty: 2}, wantDense: true})

	for _, c := range cases {
		opt := c.opt.withDefaults(c.m.NumVars())
		sc := getScratch(c.m, opt.Penalty)
		run := sc.startRun(opt, rand.New(rand.NewSource(opt.Seed)))
		sparse, dense := 0, 0
		for it := 1; it <= opt.Iterations; it++ {
			if !run.step(it) {
				break
			}
			if run.stale {
				dense++
				continue
			}
			sparse++
			for _, v := range run.pool {
				got, want := run.delta[v], run.ev.FlipDelta(v)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: step %d: cached delta of %d = %v, FlipDelta = %v", c.name, it, v, got, want)
				}
			}
		}
		if c.wantSparse && sparse == 0 {
			t.Errorf("%s: no step refreshed the cache by neighbourhood (%d dense steps)", c.name, dense)
		}
		if c.wantDense && sparse != 0 {
			t.Errorf("%s: %d steps took the neighbourhood path, want every step dense", c.name, sparse)
		}
		t.Logf("%s: %d neighbourhood refreshes, %d dense rescans", c.name, sparse, dense)
	}
}
