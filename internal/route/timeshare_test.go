package route

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cqm"
	"repro/internal/obs"
	"repro/internal/solve"
)

// timed is a backend that spends a settable amount of fake time per
// solve and answers honestly, or refuses every model in zero time with
// ErrTooLarge. It adds up the fake time it was busy.
type timed struct {
	name   string
	clk    *solve.Fake
	cost   time.Duration
	refuse bool
	busy   time.Duration
}

func (b *timed) Name() string { return b.name }

func (b *timed) Solve(ctx context.Context, m *cqm.Model, opts ...solve.Option) (*solve.Result, error) {
	if b.refuse {
		return nil, fmt.Errorf("%w: refused", ErrTooLarge)
	}
	b.clk.Advance(b.cost)
	b.busy += b.cost
	return honest(m, []bool{false}), nil
}

// timeShareRouter builds the served portfolio's shape on a fake clock:
// a fast backend (80 ms a solve, like sa), a slow one (1800 ms, like a
// tabu probe) and one that refuses every model in 0 ms (like exact on
// a served model). It returns the router, the three backends and the
// solve options that put the router's latency measurement on the clock.
func timeShareRouter(t *testing.T) (r *Router, fast, slow, refusing *timed, opts []solve.Option) {
	t.Helper()
	clk := solve.NewFake(time.Unix(0, 0))
	fast = &timed{name: "fast", clk: clk, cost: 80 * time.Millisecond}
	slow = &timed{name: "slow", clk: clk, cost: 1800 * time.Millisecond}
	refusing = &timed{name: "refusing", clk: clk, refuse: true}
	r, err := New(Options{}, fast, slow, refusing)
	if err != nil {
		t.Fatal(err)
	}
	return r, fast, slow, refusing, []solve.Option{solve.WithClock(clk)}
}

func picksByName(r *Router) map[string]int64 {
	out := make(map[string]int64)
	for _, tl := range r.Tallies() {
		out[tl.Backend] = tl.Picks
	}
	return out
}

// TestPerfGateRouteTimeShare gates the worker-time rule: a backend
// ~20× slower than the fastest, healthy but slow, keeps about Floor of
// the busy time (not the ~50% that pick shares ∝ 1/latency give it),
// is still probed at least once per 1000 solves, and a backend that
// refuses everything keeps about Floor of the picks. The smooth
// round-robin is deterministic on the fake clock, so the pick counts
// are pinned exactly.
func TestPerfGateRouteTimeShare(t *testing.T) {
	r, fast, slow, refusing, opts := timeShareRouter(t)
	m := model()
	const solves, window = 4000, 1000
	last := int64(0)
	for i := 1; i <= solves; i++ {
		if _, err := r.Solve(context.Background(), m, opts...); err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		if i%window == 0 {
			p := picksByName(r)["slow"]
			if p == last {
				t.Errorf("slow backend not picked in solves %d..%d", i-window+1, i)
			}
			last = p
		}
	}

	picks := picksByName(r)
	want := map[string]int64{"fast": 3990, "slow": 10, "refusing": 205}
	for name, w := range want {
		if picks[name] != w {
			t.Errorf("%s picks = %d, want %d (all picks %v)", name, picks[name], w, picks)
		}
	}

	busy := fast.busy + slow.busy + refusing.busy
	share := float64(slow.busy) / float64(busy)
	t.Logf("picks %v; slow busy %v of %v (%.4f)", picks, slow.busy, busy, share)
	if share < DefaultFloor/2 || share > 2*DefaultFloor {
		t.Errorf("slow backend took %.4f of busy time, want within [%g, %g]", share, DefaultFloor/2, 2*DefaultFloor)
	}
	if ps := float64(picks["refusing"]) / solves; ps < 0.8*DefaultFloor || ps > 1.2*DefaultFloor {
		t.Errorf("refusing backend picked on %.4f of solves, want about Floor %g", ps, DefaultFloor)
	}
}

// TestSlowBackendThatTurnsFastRecovers: degrade, don't ban, in
// worker-time units. The slow backend's floor probes keep measuring
// it, so once it speeds up to the fast backend's cost its latency EWMA
// falls and it regains its fair share of picks within a pinned number
// of solves.
func TestSlowBackendThatTurnsFastRecovers(t *testing.T) {
	r, _, slow, _, opts := timeShareRouter(t)
	m := model()
	const before, maxAfter = 2000, 4000
	// recoverAt is the measured number of solves after the speed-up
	// until the slow backend's pick share reaches 0.4; the fake clock
	// makes it exact.
	const recoverAt = 751
	for i := 0; i < before; i++ {
		if _, err := r.Solve(context.Background(), m, opts...); err != nil {
			t.Fatal(err)
		}
	}
	slow.cost = 80 * time.Millisecond
	got := -1
	for i := 1; i <= maxAfter && got < 0; i++ {
		if _, err := r.Solve(context.Background(), m, opts...); err != nil {
			t.Fatal(err)
		}
		if r.Tallies()[1].Weight >= 0.4 {
			got = i
		}
	}
	if got != recoverAt {
		t.Fatalf("sped-up backend reached 0.4 of picks after %d solves, want %d (-1: not within %d)", got, recoverAt, maxAfter)
	}
	// Having recovered, it serves its share.
	p0 := picksByName(r)["slow"]
	const check = 500
	for i := 0; i < check; i++ {
		if _, err := r.Solve(context.Background(), m, opts...); err != nil {
			t.Fatal(err)
		}
	}
	if p := picksByName(r)["slow"] - p0; float64(p) < 0.4*check {
		t.Fatalf("recovered backend took %d of the next %d solves, want >= %d", p, check, int(0.4*check))
	}
}

// TestNoPhantomHedgeMetrics: a router whose registry no hedge writes to
// publishes only its own route.* metrics, and a recompute allocates
// nothing once the metrics exist.
func TestNoPhantomHedgeMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	a, b := &stub{name: "a"}, &stub{name: "b"}
	r, err := New(Options{Obs: reg}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	m := model()
	for i := 0; i < 20; i++ {
		if _, err := r.Solve(context.Background(), m); err != nil {
			t.Fatal(err)
		}
	}
	r.Tallies()
	s := reg.Snapshot()
	for _, c := range s.Counters {
		if strings.HasPrefix(c.Name, "hedge.") {
			t.Errorf("router published phantom counter %s", c.Name)
		}
	}
	for _, g := range s.Gauges {
		if !strings.HasPrefix(g.Name, "route.") {
			t.Errorf("router published unexpected gauge %s", g.Name)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		r.mu.Lock()
		r.recomputeLocked()
		r.mu.Unlock()
	}); allocs != 0 {
		t.Fatalf("recomputeLocked allocates %v per call, want 0", allocs)
	}
}
