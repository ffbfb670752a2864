package route

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/cqm"
	"repro/internal/sa"
	"repro/internal/solve"
)

// fastFail is a backend that fails quickly: it spends 50 µs of fake
// time, then refuses the model, panics, or returns a reply that
// verification rejects.
type fastFail struct {
	clk  *solve.Fake
	mode string
}

func (f *fastFail) Name() string { return "fastfail" }

func (f *fastFail) Solve(ctx context.Context, m *cqm.Model, opts ...solve.Option) (*solve.Result, error) {
	f.clk.Advance(50 * time.Microsecond)
	switch f.mode {
	case "panic":
		panic("fastfail crash")
	case "reject":
		return &solve.Result{Sample: make([]bool, m.NumVars()), Objective: -1e9, Feasible: true}, nil
	}
	return nil, fmt.Errorf("%w: refused", solve.ErrTooLarge)
}

// TestFailedAttemptsDoNotSetLatencyReference: behind a router over
// {sa, a backend that fails in 50 µs}, the failing backend's latency
// EWMA stays unset whatever the failure kind, so it never becomes the
// latency reference. sa, the only backend with a success, is that
// reference, and its raw weight is its success rate alone, never
// scaled down by the failing backend's speed.
func TestFailedAttemptsDoNotSetLatencyReference(t *testing.T) {
	for _, mode := range []string{"refuse", "panic", "reject"} {
		t.Run(mode, func(t *testing.T) {
			clk := solve.NewFake(time.Unix(0, 0))
			opts := []solve.Option{
				solve.WithClock(clk), solve.WithSeed(1), solve.WithSweeps(10),
				solve.WithProgress(func(solve.Event) { clk.Advance(time.Millisecond) }),
			}
			r, err := New(Options{}, sa.NewEngine(), &fastFail{clk: clk, mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			m := model()
			for i := 0; i < 20; i++ {
				if _, err := r.Solve(context.Background(), m, opts...); err != nil {
					t.Fatalf("solve %d: %v", i, err)
				}
				tal := r.Tallies()
				s, f := tal[0], tal[1]
				if f.LatencyMs != 0 {
					t.Fatalf("solve %d: failing backend LatencyMs = %v, want unset", i, f.LatencyMs)
				}
				if s.LatencyMs <= 0 {
					t.Fatalf("solve %d: sa LatencyMs = %v, want its success latency", i, s.LatencyMs)
				}
				// Unscaled raws: sa 1 - fail, failing backend 1 - fail.
				want := normalize([]float64{1 - s.FailRate, 1 - f.FailRate}, DefaultFloor)
				if math.Abs(s.Weight-want[0]) > 1e-12 {
					t.Fatalf("solve %d: sa weight = %v, want %v (latency-scaled by the failing backend?)", i, s.Weight, want[0])
				}
			}
			if f := r.Tallies()[1]; f.Picks == 0 || f.OK != 0 {
				t.Fatalf("failing backend tally %+v, want picks and no successes", f)
			}
		})
	}
}

// normalize applies the router's floor-and-renormalize step to raw
// weights.
func normalize(raws []float64, floor float64) []float64 {
	sum := 0.0
	for _, r := range raws {
		sum += r
	}
	out := make([]float64, len(raws))
	total := 0.0
	for i, r := range raws {
		out[i] = max(floor, r/sum)
		total += out[i]
	}
	for i := range out {
		out[i] /= total
	}
	return out
}
