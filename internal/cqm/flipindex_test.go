package cqm

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestFlipIndexCoversChangedDeltas: on random models, flipping v
// changes FlipDelta only for variables AppendAffected lists for v, and
// Span is the list's length.
func TestFlipIndexCoversChangedDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		m := randomModel(rng)
		n := m.NumVars()
		fi := m.FlipIndex()
		ev := NewEvaluator(m, 1+float64(rng.Intn(3)))
		ev.Reset(randAssign(rng, n))
		before := make([]float64, n)
		for step := 0; step < 20; step++ {
			for w := range before {
				before[w] = ev.FlipDelta(VarID(w))
			}
			v := VarID(rng.Intn(n))
			affected := fi.AppendAffected(nil, v)
			if len(affected) != fi.Span(v) {
				t.Fatalf("trial %d: Span(%d) = %d, AppendAffected lists %d", trial, v, fi.Span(v), len(affected))
			}
			listed := make(map[int32]bool, len(affected))
			for _, w := range affected {
				listed[w] = true
			}
			ev.Flip(v)
			for w := range before {
				after := ev.FlipDelta(VarID(w))
				if math.Float64bits(after) != math.Float64bits(before[w]) && !listed[int32(w)] {
					t.Fatalf("trial %d: flipping %d changed FlipDelta(%d) %v -> %v, not in its flip neighbourhood",
						trial, v, w, before[w], after)
				}
			}
		}
	}
}

// TestFlipIndexInvalidation: a mutation drops the cached index with the
// layout, and the rebuilt index sees the new terms.
func TestFlipIndexInvalidation(t *testing.T) {
	m := New()
	a, b := m.AddBinary("a"), m.AddBinary("b")
	first := m.FlipIndex()
	if m.FlipIndex() != first {
		t.Fatal("FlipIndex rebuilt without a mutation")
	}
	if got := first.Span(a); got != 1 {
		t.Fatalf("Span(a) = %d before any terms, want 1", got)
	}
	var e LinExpr
	e.Add(a, 1)
	e.Add(b, 2)
	m.AddConstraint("c", e, Le, 1)
	second := m.FlipIndex()
	if second == first {
		t.Fatal("FlipIndex not invalidated by AddConstraint")
	}
	if got := second.AppendAffected(nil, a); len(got) != 3 || got[0] != int32(a) || got[1] != int32(a) || got[2] != int32(b) {
		t.Fatalf("AppendAffected(a) = %v, want [a a b]", got)
	}
}

// TestFlipIndexConcurrentFirstUse: goroutines racing to the first
// FlipIndex call on one model all get the same index (run under -race).
func TestFlipIndexConcurrentFirstUse(t *testing.T) {
	m := randomModel(rand.New(rand.NewSource(5)))
	const workers = 8
	got := make([]*FlipIndex, workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = m.FlipIndex()
		}(i)
	}
	wg.Wait()
	for i, fi := range got {
		if fi != got[0] {
			t.Fatalf("worker %d got a different index", i)
		}
	}
}
