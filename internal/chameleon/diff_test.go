package chameleon

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lrp"
)

// simCase is one random simulator scenario: a machine, an instance and
// a plan (or none) before each of three BSP iterations.
type simCase struct {
	cfg   Config
	in    *lrp.Instance
	plans []*lrp.Plan
}

// randomSimCase draws instances with empty, small and large queues,
// weights shared between processes (equal LPT keys across origins),
// free and costly communication (equal and distinct arrival times), LPT
// on and off, and heterogeneous worker counts. Plans are drawn sender
// by sender against what each process holds by then, so a process
// often forwards tasks it received earlier in the same plan; about one
// plan in ten overdraws a sender.
func randomSimCase(rng *rand.Rand, maxProcs, maxTasks int) simCase {
	m := 1 + rng.Intn(maxProcs)
	tasks := make([]int, m)
	weights := make([]float64, m)
	for j := range tasks {
		if rng.Intn(5) > 0 {
			tasks[j] = rng.Intn(maxTasks + 1)
		}
		if j > 0 && rng.Intn(3) == 0 {
			weights[j] = weights[rng.Intn(j)]
		} else {
			weights[j] = 0.1 + 5*rng.Float64()
		}
	}
	cfg := Config{Workers: 1 + rng.Intn(4), LPT: rng.Intn(2) == 0}
	if rng.Intn(3) > 0 {
		cfg.LatencyMs = rng.Float64()
		cfg.PerTaskMs = 0.1 * rng.Float64()
	}
	if rng.Intn(3) == 0 {
		cfg.WorkersPerProc = make([]int, rng.Intn(m+1))
		for p := range cfg.WorkersPerProc {
			cfg.WorkersPerProc[p] = rng.Intn(5)
		}
	}
	c := simCase{cfg: cfg, in: lrp.MustInstance(tasks, weights)}
	held := append([]int(nil), tasks...)
	for it := 0; it < 3; it++ {
		if rng.Intn(3) == 0 {
			c.plans = append(c.plans, nil)
			continue
		}
		p := lrp.ZeroPlan(m)
		overdraw := rng.Intn(10) == 0
		for j := 0; j < m; j++ {
			for i := 0; i < m; i++ {
				if i == j || held[j] == 0 || rng.Intn(2) == 0 {
					continue
				}
				n := 1 + rng.Intn(held[j])
				if overdraw && rng.Intn(2) == 0 {
					n = held[j] + 1
				}
				p.X[i][j] = n
				held[j] = max(0, held[j]-n)
				held[i] += n
			}
		}
		c.plans = append(c.plans, p)
		if overdraw {
			break // the runtime stops partway through this plan
		}
	}
	return c
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameEvent(a, b TraceEvent) bool {
	return a.Iter == b.Iter && a.Proc == b.Proc && a.Worker == b.Worker && a.Origin == b.Origin &&
		sameFloat(a.StartMs, b.StartMs) && sameFloat(a.EndMs, b.EndMs)
}

// checkAgainstReference runs c on the live Runtime and on the frozen
// per-task reference and fails on the first difference. It reports
// whether some plan made a process forward tasks it had received.
func checkAgainstReference(t *testing.T, name string, c simCase) (forwarded bool) {
	t.Helper()
	got, err := New(c.cfg, c.in)
	if err != nil {
		t.Fatalf("%s: New: %v", name, err)
	}
	want, err := refNew(c.cfg, c.in)
	if err != nil {
		t.Fatalf("%s: refNew: %v", name, err)
	}
	var gotEv, wantEv []TraceEvent
	got.SetTracer(func(e TraceEvent) { gotEv = append(gotEv, e) })
	want.tracer = func(e TraceEvent) { wantEv = append(wantEv, e) }
	check := func(stage string) {
		t.Helper()
		if g, w := got.QueueLengths(), want.QueueLengths(); !sameInts(g, w) {
			t.Fatalf("%s %s: QueueLengths %v, reference %v", name, stage, g, w)
		}
		if g, w := got.TotalLoad(), want.TotalLoad(); !sameFloat(g, w) {
			t.Fatalf("%s %s: TotalLoad %v, reference %v", name, stage, g, w)
		}
	}
	check("after New")
	for it, p := range c.plans {
		if p != nil {
			received := make([]bool, len(c.in.Tasks))
			for j := range p.X {
				for i := range p.X {
					if i != j && p.X[i][j] > 0 {
						forwarded = forwarded || received[j]
						received[i] = true
					}
				}
			}
			gm, gerr := got.ApplyPlan(p)
			wm, werr := want.ApplyPlan(p)
			if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("%s iter %d: ApplyPlan error %v, reference %v", name, it, gerr, werr)
			}
			if gm.Messages != wm.Messages || gm.Tasks != wm.Tasks ||
				!sameFloat(gm.CommTimeMs, wm.CommTimeMs) || !sameFloat(gm.LastArrivalMs, wm.LastArrivalMs) {
				t.Fatalf("%s iter %d: MigrationStats %+v, reference %+v", name, it, gm, wm)
			}
			check("after ApplyPlan")
		}
		gs, ws := got.RunIteration(), want.RunIteration()
		if !sameFloat(gs.MakespanMs, ws.MakespanMs) || !sameFloat(gs.IdleMs, ws.IdleMs) ||
			!sameFloat(gs.Imbalance, ws.Imbalance) || !sameFloats(gs.Finish, ws.Finish) || !sameFloats(gs.Busy, ws.Busy) {
			t.Fatalf("%s iter %d: IterStats %+v, reference %+v", name, it, gs, ws)
		}
		check("after RunIteration")
	}
	if len(gotEv) != len(wantEv) {
		t.Fatalf("%s: %d trace events, reference %d", name, len(gotEv), len(wantEv))
	}
	for k := range gotEv {
		if !sameEvent(gotEv[k], wantEv[k]) {
			t.Fatalf("%s: trace event %d = %+v, reference %+v", name, k, gotEv[k], wantEv[k])
		}
	}
	return forwarded
}

// TestRunLengthQueuesMatchPerTaskReference is the differential check of
// the run-length queues: on random machines, instances and plans (see
// randomSimCase) every observable — IterStats, MigrationStats, plan
// errors, QueueLengths, TotalLoad and the tracer's event stream — must
// equal the frozen per-task simulator's bit for bit.
func TestRunLengthQueuesMatchPerTaskReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	forwarding := 0
	for k := 0; k < 2000; k++ {
		if checkAgainstReference(t, "small", randomSimCase(rng, 6, 12)) {
			forwarding++
		}
	}
	for k := 0; k < 100; k++ {
		if checkAgainstReference(t, "large", randomSimCase(rng, 24, 400)) {
			forwarding++
		}
	}
	t.Logf("%d of 2100 cases forwarded received tasks", forwarding)
	if forwarding < 200 {
		t.Fatalf("only %d cases forwarded received tasks; the generator no longer covers forwarding", forwarding)
	}
}
