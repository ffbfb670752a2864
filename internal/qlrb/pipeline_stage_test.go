package qlrb

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cqm"
	"repro/internal/hybrid"
	"repro/internal/lrp"
	"repro/internal/obs"
	"repro/internal/solve"
	"repro/internal/verify"
)

func pipelineInstance() *lrp.Instance {
	return lrp.MustInstance([]int{8, 8, 8, 8}, []float64{1, 1, 1, 6})
}

// TestPipelineMatchesSolve pins the refactor: the monolithic Solve and
// an explicitly staged Pipeline run must produce the identical plan and
// stats for the same seed — Solve is the pipeline, not a sibling.
func TestPipelineMatchesSolve(t *testing.T) {
	in := pipelineInstance()
	opt := SolveOptions{
		Build:  BuildOptions{Form: QCQM1, K: 8},
		Hybrid: hybrid.Options{Reads: 3, Sweeps: 120, Seed: 42},
	}

	planA, statsA, err := Solve(context.Background(), in, opt)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}

	p := opt.Pipeline()
	enc, err := p.BuildStage(in)
	if err != nil {
		t.Fatalf("BuildStage: %v", err)
	}
	res, err := p.SampleStage(context.Background(), enc)
	if err != nil {
		t.Fatalf("SampleStage: %v", err)
	}
	planB, _, err := p.DecodeStage(enc, res)
	if err != nil {
		t.Fatalf("DecodeStage: %v", err)
	}
	if err := p.VerifyStage(in, planB); err != nil {
		t.Fatalf("VerifyStage: %v", err)
	}

	if planA.String() != planB.String() {
		t.Fatalf("staged run diverged from Solve:\nSolve:\n%v\nstaged:\n%v", planA, planB)
	}
	if statsA.Qubits != enc.NumLogicalQubits() {
		t.Fatalf("qubits %d, staged build has %d", statsA.Qubits, enc.NumLogicalQubits())
	}
}

// stubSolver returns a canned sample for any model.
type stubSolver struct{ sample []bool }

func (s stubSolver) Name() string { return "stub" }

func (s stubSolver) Solve(_ context.Context, m *cqm.Model, _ ...solve.Option) (*solve.Result, error) {
	return &solve.Result{
		Sample:    s.sample,
		Objective: m.Objective(s.sample),
		Feasible:  m.Feasible(s.sample, 1e-6),
	}, nil
}

// TestPipelineSolverFactory proves the Solver hook swaps the backend:
// a stub solver returning a fixed feasible sample flows through
// decode+verify and its result, not the hybrid default, is returned.
func TestPipelineSolverFactory(t *testing.T) {
	in := pipelineInstance()
	var sawModel *cqm.Model
	p := &Pipeline{
		Build: BuildOptions{Form: QCQM1, K: 0},
		Solver: func(enc *Encoded) solve.Solver {
			sawModel = enc.Model
			// The identity plan encodes to the all-zero sample under
			// QCQM1 (no off-diagonal migration bits set).
			bits, err := enc.EncodePlan(lrp.NewPlan(in))
			if err != nil {
				t.Fatalf("EncodePlan(identity): %v", err)
			}
			return stubSolver{sample: bits}
		},
	}
	plan, stats, err := p.Run(context.Background(), in)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sawModel == nil {
		t.Fatal("Solver factory never invoked")
	}
	if plan.Migrated() != 0 {
		t.Fatalf("stub identity sample decoded to %d migrations", plan.Migrated())
	}
	if !stats.SampleFeasible {
		t.Fatal("identity sample should be feasible for K=0")
	}
}

// TestPipelineWrapDecoratesSolver proves Wrap still decorates whatever
// the factory produced (middleware ordering: Solver then Wrap).
func TestPipelineWrapDecoratesSolver(t *testing.T) {
	in := pipelineInstance()
	wrapped := false
	p := &Pipeline{
		Build:  BuildOptions{Form: QCQM1, K: 4},
		Hybrid: hybrid.Options{Reads: 2, Sweeps: 60, Seed: 1},
		Wrap: func(s solve.Solver) solve.Solver {
			wrapped = true
			return s
		},
	}
	if _, _, err := p.Run(context.Background(), in); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !wrapped {
		t.Fatal("Wrap hook never invoked")
	}
}

// TestPipelineVerifyGateRejects proves the verify stage is a real gate:
// a solver handing back a sample that decodes over budget after repair
// is impossible by construction, so the gate is exercised directly with
// a corrupt plan.
func TestPipelineVerifyGateRejects(t *testing.T) {
	in := pipelineInstance()
	p := &Pipeline{Build: BuildOptions{Form: QCQM1, K: 2}}
	bad := lrp.NewPlan(in)
	bad.X[0][0]++ // conservation broken
	err := p.VerifyStage(in, bad)
	if err == nil || !errors.Is(err, verify.ErrRejected) {
		t.Fatalf("VerifyStage = %v, want verify.ErrRejected", err)
	}
}

// TestPipelineObsSpans pins the per-stage span names the observability
// consumers rely on.
func TestPipelineObsSpans(t *testing.T) {
	in := pipelineInstance()
	reg := obs.NewRegistry()
	p := &Pipeline{
		Build:  BuildOptions{Form: QCQM1, K: 8},
		Hybrid: hybrid.Options{Reads: 2, Sweeps: 60, Seed: 3},
		Obs:    reg,
	}
	if _, _, err := p.Run(context.Background(), in); err != nil {
		t.Fatalf("Run: %v", err)
	}
	snap := reg.Snapshot()
	want := map[string]bool{"qlrb.build": false, "qlrb.solve": false, "qlrb.decode": false, "qlrb.verify": false}
	for _, sp := range snap.Spans {
		if _, ok := want[sp.Name]; ok {
			want[sp.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("span %q missing from trace (got %d spans)", name, len(snap.Spans))
		}
	}
}

// TestPipelineWarmPlansOnlyWhenRead: the pipeline reports whether its
// sampler reads any WarmPlans entry, and warm plans past the read
// prefix leave the solve bit-identical.
func TestPipelineWarmPlansOnlyWhenRead(t *testing.T) {
	for _, c := range []struct {
		name string
		p    Pipeline
		want bool
	}{
		{"one read reads only the identity", Pipeline{Hybrid: hybrid.Options{Reads: 1}}, false},
		{"three reads read two warm starts", Pipeline{Hybrid: hybrid.Options{Reads: 3}}, true},
		{"WithReads overrides", Pipeline{Hybrid: hybrid.Options{Reads: 1}, Opts: []solve.Option{solve.WithReads(3)}}, true},
		{"caller initials fill the prefix", Pipeline{Hybrid: hybrid.Options{Reads: 3, Initials: [][]bool{nil}}}, false},
		{"NoWarmStart", Pipeline{Hybrid: hybrid.Options{Reads: 8}, NoWarmStart: true}, false},
		{"custom solver", Pipeline{Hybrid: hybrid.Options{Reads: 8}, Solver: func(*Encoded) solve.Solver { return nil }}, false},
	} {
		if got := c.p.ReadsWarmPlans(); got != c.want {
			t.Errorf("%s: ReadsWarmPlans = %v, want %v", c.name, got, c.want)
		}
	}

	in := pipelineInstance()
	warm := lrp.NewPlan(in)
	warm.X[0][3], warm.X[3][3] = 4, 4 // move half of the heavy process's tasks
	if err := warm.Validate(in); err != nil {
		t.Fatal(err)
	}
	for _, reads := range []int{1, 2} {
		run := func(plans []*lrp.Plan) string {
			p := Pipeline{
				Build:     BuildOptions{Form: QCQM1, K: 8},
				Hybrid:    hybrid.Options{Reads: reads, Sweeps: 60, Seed: 3},
				WarmPlans: plans,
			}
			plan, _, err := p.Run(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			return plan.String()
		}
		if a, b := run(nil), run([]*lrp.Plan{warm}); a != b {
			t.Fatalf("reads %d: an unread warm plan changed the plan:\n%v\nvs\n%v", reads, a, b)
		}
	}
}
