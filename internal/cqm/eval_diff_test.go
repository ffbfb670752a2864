package cqm

import (
	"math"
	"math/rand"
	"testing"
)

// scratchEnergy recomputes the penalized energy from nothing but the
// model and the raw assignment — no incremental caches, no CSR layout —
// exactly the quantity the flat evaluator claims to maintain.
func scratchEnergy(m *Model, x []bool, penalty []float64) float64 {
	e := m.Objective(x)
	cs := m.Constraints()
	for ci := range cs {
		gap := cs[ci].Violation(x)
		e += penalty[ci] * gap * gap
	}
	return e
}

// randomModel builds a random constrained model exercising every term
// kind: linear, plain quadratic, squared expressions (with duplicate
// variables, zero coefficients and offsets), and all three constraint
// senses. Coefficients mix integers and fractions so both the exact and
// the tolerance paths are covered.
func randomModel(rng *rand.Rand) *Model {
	m := New()
	n := 1 + rng.Intn(24)
	vars := make([]VarID, n)
	for i := range vars {
		vars[i] = m.AddBinary("x")
	}
	coef := func() float64 {
		c := float64(rng.Intn(11) - 5)
		if rng.Intn(4) == 0 {
			c += 0.25 * float64(rng.Intn(4))
		}
		return c
	}
	for k := rng.Intn(2 * n); k > 0; k-- {
		m.AddObjectiveLinear(vars[rng.Intn(n)], coef())
	}
	for k := rng.Intn(2 * n); k > 0; k-- {
		m.AddObjectiveQuad(vars[rng.Intn(n)], vars[rng.Intn(n)], coef())
	}
	for k := rng.Intn(4); k > 0; k-- {
		var e LinExpr
		for t := 1 + rng.Intn(n); t > 0; t-- {
			e.Add(vars[rng.Intn(n)], coef())
		}
		e.Offset = coef()
		m.AddObjectiveSquared(e)
	}
	m.AddObjectiveOffset(coef())
	for k := rng.Intn(4); k > 0; k-- {
		var e LinExpr
		for t := 1 + rng.Intn(n); t > 0; t-- {
			e.Add(vars[rng.Intn(n)], coef())
		}
		m.AddConstraint("c", e, Sense(rng.Intn(3)), coef())
	}
	return m
}

// checkAgainstScratch drives one evaluator through a random flip
// sequence, comparing FlipDelta, Flip, CommitFlip, Energy, Feasible and
// ObjectiveValue against from-scratch recomputation at every step.
func checkAgainstScratch(t *testing.T, m *Model, rng *rand.Rand, steps int) {
	t.Helper()
	n := m.NumVars()
	penalty := 0.5 + float64(rng.Intn(5))
	ev := NewEvaluator(m, penalty)
	weights := make([]float64, m.NumConstraints())
	for i := range weights {
		weights[i] = penalty
	}

	x := make([]bool, n)
	for i := range x {
		x[i] = rng.Intn(2) == 0
	}
	ev.Reset(x)

	// Tolerance scales with the energy magnitude: incremental updates
	// and scratch recomputation sum the same floats in different orders.
	tolFor := func(e float64) float64 { return 1e-9 * (1 + math.Abs(e)) }

	for step := 0; step < steps; step++ {
		if want, got := scratchEnergy(m, x, weights), ev.Energy(); math.Abs(want-got) > tolFor(want) {
			t.Fatalf("step %d: Energy = %g, scratch = %g", step, got, want)
		}
		if want, got := m.Objective(x), ev.ObjectiveValue(); math.Abs(want-got) > tolFor(want) {
			t.Fatalf("step %d: ObjectiveValue = %g, scratch = %g", step, got, want)
		}
		if want, got := m.Feasible(x, 1e-6), ev.Feasible(1e-6); want != got {
			t.Fatalf("step %d: Feasible = %v, scratch = %v", step, got, want)
		}

		v := VarID(rng.Intn(n))
		before := scratchEnergy(m, x, weights)
		x[v] = !x[v]
		after := scratchEnergy(m, x, weights)
		wantDelta := after - before

		delta := ev.FlipDelta(v)
		if math.Abs(delta-wantDelta) > tolFor(before) {
			t.Fatalf("step %d: FlipDelta(%d) = %g, scratch diff = %g", step, v, delta, wantDelta)
		}

		// Exercise all three mutation paths.
		switch step % 3 {
		case 0:
			ev.CommitFlip(v, delta)
		case 1:
			if got := ev.Flip(v); got != delta {
				t.Fatalf("step %d: Flip = %g, FlipDelta = %g", step, got, delta)
			}
		case 2:
			// Reject the speculative delta, then commit via Reset to
			// prove cold rebuilds agree with the incremental path.
			ev.Reset(x)
		}
		if ev.Get(v) != x[v] {
			t.Fatalf("step %d: Get(%d) = %v after flip, want %v", step, v, ev.Get(v), x[v])
		}

		if step%7 == 0 {
			f := 1 + float64(rng.Intn(3))
			ev.ScalePenalties(f)
			for i := range weights {
				weights[i] *= f
			}
		}
	}

	// The decoded assignment must match the reference exactly.
	got := ev.Assignment()
	for i := range x {
		if got[i] != x[i] {
			t.Fatalf("Assignment()[%d] = %v, want %v", i, got[i], x[i])
		}
	}
}

func TestEvaluatorMatchesScratchRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		m := randomModel(rng)
		checkAgainstScratch(t, m, rng, 120)
	}
}

func TestEvaluatorLayoutCacheInvalidation(t *testing.T) {
	m := New()
	a := m.AddBinary("a")
	m.AddObjectiveLinear(a, 2)
	ev := NewEvaluator(m, 1)
	if d := ev.FlipDelta(a); d != 2 {
		t.Fatalf("FlipDelta = %v, want 2", d)
	}
	// Mutate the model: a fresh evaluator must see the new terms even
	// though the layout was cached for the first one.
	b := m.AddBinary("b")
	m.AddObjectiveLinear(b, 5)
	ev2 := NewEvaluator(m, 1)
	if d := ev2.FlipDelta(b); d != 5 {
		t.Fatalf("post-mutation FlipDelta = %v, want 5", d)
	}
}

// FuzzEvaluator fuzzes the differential property: build a model and a
// flip sequence from the input bytes and require the flat-layout
// incremental evaluator to match from-scratch recomputation.
func FuzzEvaluator(f *testing.F) {
	f.Add(int64(1), uint(8))
	f.Add(int64(42), uint(200))
	f.Add(int64(-3), uint(1))
	f.Fuzz(func(t *testing.T, seed int64, steps uint) {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(rng)
		checkAgainstScratch(t, m, rng, int(steps%256))
	})
}

// TestFlipMatchesDeltaThenCommit pins the one-pass Flip to the two-pass
// FlipDelta+CommitFlip it fuses: twin evaluators on random models with
// continuous coefficients (every membership kind, all three constraint
// senses) run the same long flip sequence, one through each path, and
// must agree bit for bit at every step.
func TestFlipMatchesDeltaThenCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for trial := 0; trial < 40; trial++ {
		m := New()
		n := 2 + rng.Intn(40)
		for i := 0; i < n; i++ {
			m.AddBinary("x")
		}
		randExpr := func() LinExpr {
			var e LinExpr
			for t := 1 + rng.Intn(n); t > 0; t-- {
				e.Add(VarID(rng.Intn(n)), rng.NormFloat64())
			}
			e.Offset = rng.NormFloat64()
			return e
		}
		for k := 2 * n; k > 0; k-- {
			m.AddObjectiveLinear(VarID(rng.Intn(n)), rng.NormFloat64())
			m.AddObjectiveQuad(VarID(rng.Intn(n)), VarID(rng.Intn(n)), rng.NormFloat64())
		}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			m.AddObjectiveSquared(randExpr())
		}
		for _, s := range []Sense{Le, Ge, Eq, Sense(rng.Intn(3))} {
			m.AddConstraint("c", randExpr(), s, rng.NormFloat64())
		}

		penalty := 0.1 + 4*rng.Float64()
		one, two := NewEvaluator(m, penalty), NewEvaluator(m, penalty)
		x := make([]bool, n)
		for i := range x {
			x[i] = rng.Intn(2) == 0
		}
		one.Reset(x)
		two.Reset(x)
		for step := 0; step < 2000; step++ {
			v := VarID(rng.Intn(n))
			got := one.Flip(v)
			want := two.FlipDelta(v)
			two.CommitFlip(v, want)
			if !same(got, want) {
				t.Fatalf("trial %d step %d: Flip(%d) = %v, FlipDelta = %v", trial, step, v, got, want)
			}
			if !same(one.Energy(), two.Energy()) || !same(one.ObjectiveValue(), two.ObjectiveValue()) ||
				!same(one.PenaltyValue(), two.PenaltyValue()) {
				t.Fatalf("trial %d step %d: Flip path energy/objective/penalty %v/%v/%v, two-pass %v/%v/%v",
					trial, step, one.Energy(), one.ObjectiveValue(), one.PenaltyValue(),
					two.Energy(), two.ObjectiveValue(), two.PenaltyValue())
			}
			w1, w2 := one.Words(), two.Words()
			for i := range w1 {
				if w1[i] != w2[i] {
					t.Fatalf("trial %d step %d: assignment word %d differs", trial, step, i)
				}
			}
		}
	}
}
