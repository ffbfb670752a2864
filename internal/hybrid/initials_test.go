package hybrid

import (
	"math/rand"
	"slices"
	"testing"
)

// TestInitialsReadPrefixKeepsEveryRead pins the warm-start prefix rule:
// truncating Initials to the InitialsRead prefix leaves every annealing
// and tabu read's start unchanged, so the solve is bit-identical.
func TestInitialsReadPrefixKeepsEveryRead(t *testing.T) {
	m := knapsackModel([]float64{9, 7, 5, 4, 3, 2, 1, 8, 6}, 4)
	rng := rand.New(rand.NewSource(1))
	initials := make([][]bool, 7)
	for i := range initials {
		initials[i] = make([]bool, m.NumVars())
		for j := range initials[i] {
			initials[i][j] = rng.Intn(3) == 0
		}
	}
	for _, reads := range []int{1, 2, 3, 5, 8} {
		for _, tabuReads := range []int{0, 3, 11} {
			opt := Options{Reads: reads, TabuReads: tabuReads, Sweeps: 40, Seed: 7, Penalty: 2, PenaltyGrowth: 4, Initials: initials}
			n := opt.InitialsRead(0)
			if want := (max(reads, tabuReads) + 1) / 2; n != want {
				t.Fatalf("reads %d, tabu %d: InitialsRead = %d, want %d", reads, tabuReads, n, want)
			}
			full := mustSolve(t, m, opt)
			opt.Initials = initials[:min(n, len(initials))]
			cut := mustSolve(t, m, opt)
			if !slices.Equal(full.Sample, cut.Sample) || full.Objective != cut.Objective || full.Stats.Flips != cut.Stats.Flips {
				t.Fatalf("reads %d, tabu %d: prefix of %d initials changed the solve", reads, tabuReads, n)
			}
		}
	}
}

// TestInitialsReadOverrides: the solve.WithReads override and the
// default read count set the prefix; a set Initial disables it.
func TestInitialsReadOverrides(t *testing.T) {
	for _, c := range []struct {
		opt   Options
		reads int
		want  int
	}{
		{Options{Reads: 1}, 0, 1},
		{Options{Reads: 1}, 5, 3},
		{Options{}, 0, (DefaultOptions().Reads + 1) / 2},
		{Options{Reads: 2, TabuReads: 6}, 0, 3},
		{Options{Reads: 1, Initial: []bool{true}}, 0, -1},
	} {
		if got := c.opt.InitialsRead(c.reads); got != c.want {
			t.Errorf("%+v.InitialsRead(%d) = %d, want %d", c.opt, c.reads, got, c.want)
		}
	}
}
