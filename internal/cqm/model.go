// Package cqm implements a Constrained Quadratic Model (CQM) over binary
// variables, the input format of D-Wave's Leap hybrid CQM solver that the
// paper targets. A model has a quadratic objective and a set of linear
// equality / inequality constraints.
//
// The objective supports three kinds of terms:
//
//   - plain linear terms            sum_i a_i x_i
//   - plain quadratic terms         sum_{ij} q_ij x_i x_j
//   - squared linear expressions    sum_k (l_k(x))^2
//
// Squared linear expressions are first-class because the paper's LRP
// objective is exactly a sum of squared sparse linear forms
// (sum_i (L'_i - L_avg)^2); keeping that structure makes model size
// O(nonzeros) instead of O(nonzeros^2) and enables O(degree) incremental
// re-evaluation under single-bit flips (see Evaluator).
package cqm

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// VarID identifies a binary variable within a model.
type VarID int

// Term is one linear monomial a * x.
type Term struct {
	Var  VarID
	Coef float64
}

// LinExpr is a sparse linear expression sum_i Terms[i] + Offset.
type LinExpr struct {
	Terms  []Term
	Offset float64
}

// Add appends a term (it does not merge duplicates; call Normalize to
// merge).
func (e *LinExpr) Add(v VarID, coef float64) { e.Terms = append(e.Terms, Term{v, coef}) }

// Normalize merges duplicate variables and drops zero coefficients,
// leaving terms sorted by variable. It returns the receiver for chaining.
func (e *LinExpr) Normalize() *LinExpr {
	sort.Slice(e.Terms, func(i, j int) bool { return e.Terms[i].Var < e.Terms[j].Var })
	out := e.Terms[:0]
	for _, t := range e.Terms {
		if n := len(out); n > 0 && out[n-1].Var == t.Var {
			out[n-1].Coef += t.Coef
		} else {
			out = append(out, t)
		}
	}
	dst := out[:0]
	for _, t := range out {
		if t.Coef != 0 {
			dst = append(dst, t)
		}
	}
	e.Terms = dst
	return e
}

// Value evaluates the expression for a binary assignment.
func (e *LinExpr) Value(x []bool) float64 {
	v := e.Offset
	for _, t := range e.Terms {
		if x[t.Var] {
			v += t.Coef
		}
	}
	return v
}

// Clone deep-copies the expression.
func (e *LinExpr) Clone() LinExpr {
	return LinExpr{Terms: append([]Term(nil), e.Terms...), Offset: e.Offset}
}

// Sense is the comparison direction of a constraint.
type Sense int

const (
	// Eq constrains the expression to equal the RHS.
	Eq Sense = iota
	// Le constrains the expression to be at most the RHS.
	Le
	// Ge constrains the expression to be at least the RHS.
	Ge
)

// String returns the mathematical symbol of the sense.
func (s Sense) String() string {
	switch s {
	case Eq:
		return "=="
	case Le:
		return "<="
	case Ge:
		return ">="
	}
	return fmt.Sprintf("Sense(%d)", int(s))
}

// Constraint is a linear constraint Expr Sense RHS.
type Constraint struct {
	Name  string
	Expr  LinExpr
	Sense Sense
	RHS   float64
}

// Violation returns how far the assignment is from satisfying the
// constraint: 0 when satisfied, otherwise the absolute gap.
func (c *Constraint) Violation(x []bool) float64 {
	v := c.Expr.Value(x)
	switch c.Sense {
	case Eq:
		return math.Abs(v - c.RHS)
	case Le:
		if v > c.RHS {
			return v - c.RHS
		}
	case Ge:
		if v < c.RHS {
			return c.RHS - v
		}
	}
	return 0
}

// QuadTerm is one quadratic monomial q * x_a * x_b.
type QuadTerm struct {
	A, B VarID
	Coef float64
}

// Model is a constrained quadratic model over binary variables.
//
// A Model must not be copied after first use: it caches the evaluator's
// flat CSR layout behind an atomic pointer so concurrent solver workers
// (portfolio restarts, tempering replicas) share one build.
type Model struct {
	names []string

	// Objective pieces.
	objLinear  []Term
	objQuad    []QuadTerm
	objSquares []LinExpr
	objOffset  float64

	constraints []Constraint

	// Cached evaluator layout; nil until the first NewEvaluator and
	// invalidated by every mutation. Reads are lock-free on the hot
	// path; the mutex only serializes the one-time build. The flip
	// index (see FlipIndex) is cached and invalidated the same way.
	layoutCache    atomic.Pointer[layout]
	flipIndexCache atomic.Pointer[FlipIndex]
	layoutMu       sync.Mutex
}

// evalLayout returns the cached flat evaluator layout, building it on
// first use. Safe for concurrent use; mutation methods invalidate it.
func (m *Model) evalLayout() *layout {
	if l := m.layoutCache.Load(); l != nil {
		return l
	}
	m.layoutMu.Lock()
	defer m.layoutMu.Unlock()
	if l := m.layoutCache.Load(); l != nil {
		return l
	}
	l := buildLayout(m)
	m.layoutCache.Store(l)
	return l
}

// invalidateLayout drops the cached evaluator layout and flip index
// after a mutation.
func (m *Model) invalidateLayout() {
	m.layoutCache.Store(nil)
	m.flipIndexCache.Store(nil)
}

// New returns an empty model.
func New() *Model { return &Model{} }

// AddBinary declares a new binary variable and returns its id. Names are
// for diagnostics only and need not be unique.
func (m *Model) AddBinary(name string) VarID {
	m.invalidateLayout()
	m.names = append(m.names, name)
	return VarID(len(m.names) - 1)
}

// NumVars returns the number of declared variables — the logical-qubit
// count of the formulation (Table I of the paper).
func (m *Model) NumVars() int { return len(m.names) }

// VarName returns the diagnostic name of a variable.
func (m *Model) VarName(v VarID) string {
	if int(v) < 0 || int(v) >= len(m.names) {
		return fmt.Sprintf("v%d", int(v))
	}
	return m.names[v]
}

// AddObjectiveLinear adds a linear objective term.
func (m *Model) AddObjectiveLinear(v VarID, coef float64) {
	m.invalidateLayout()
	m.objLinear = append(m.objLinear, Term{v, coef})
}

// AddObjectiveQuad adds a quadratic objective term q * x_a * x_b.
// A diagonal term (a == b) is equivalent to a linear term for binaries.
func (m *Model) AddObjectiveQuad(a, b VarID, coef float64) {
	if a == b {
		m.AddObjectiveLinear(a, coef)
		return
	}
	m.invalidateLayout()
	m.objQuad = append(m.objQuad, QuadTerm{a, b, coef})
}

// AddObjectiveSquared adds (expr)^2 to the objective, keeping the
// structured (sum-of-squares) form.
func (m *Model) AddObjectiveSquared(expr LinExpr) {
	m.invalidateLayout()
	e := expr.Clone()
	e.Normalize()
	m.objSquares = append(m.objSquares, e)
}

// AddObjectiveOffset adds a constant to the objective.
func (m *Model) AddObjectiveOffset(c float64) { m.objOffset += c }

// AddConstraint adds a linear constraint and returns its index.
func (m *Model) AddConstraint(name string, expr LinExpr, sense Sense, rhs float64) int {
	m.invalidateLayout()
	e := expr.Clone()
	e.Normalize()
	m.constraints = append(m.constraints, Constraint{Name: name, Expr: e, Sense: sense, RHS: rhs})
	return len(m.constraints) - 1
}

// Constraints returns the model's constraints (shared storage; callers
// must not mutate).
func (m *Model) Constraints() []Constraint { return m.constraints }

// NumConstraints returns the number of constraints.
func (m *Model) NumConstraints() int { return len(m.constraints) }

// CountConstraintSenses returns how many equality and inequality
// constraints the model has — the paper contrasts Q_CQM1 (all
// inequalities) with Q_CQM2 (M equalities + M+1 inequalities).
func (m *Model) CountConstraintSenses() (eq, ineq int) {
	for _, c := range m.constraints {
		if c.Sense == Eq {
			eq++
		} else {
			ineq++
		}
	}
	return eq, ineq
}

// ObjectiveParts exposes the objective's internal structure (shared
// storage; callers must not mutate): linear terms, plain quadratic terms,
// squared linear expressions, and the constant offset. Exact solvers use
// this to compute admissible bounds.
func (m *Model) ObjectiveParts() (linear []Term, quad []QuadTerm, squares []LinExpr, offset float64) {
	return m.objLinear, m.objQuad, m.objSquares, m.objOffset
}

// Objective evaluates the objective (energy) for a binary assignment.
func (m *Model) Objective(x []bool) float64 {
	e := m.objOffset
	for _, t := range m.objLinear {
		if x[t.Var] {
			e += t.Coef
		}
	}
	for _, q := range m.objQuad {
		if x[q.A] && x[q.B] {
			e += q.Coef
		}
	}
	for i := range m.objSquares {
		v := m.objSquares[i].Value(x)
		e += v * v
	}
	return e
}

// Violations returns the per-constraint violation vector.
func (m *Model) Violations(x []bool) []float64 {
	out := make([]float64, len(m.constraints))
	for i := range m.constraints {
		out[i] = m.constraints[i].Violation(x)
	}
	return out
}

// Feasible reports whether every constraint is satisfied within tol.
func (m *Model) Feasible(x []bool, tol float64) bool {
	for i := range m.constraints {
		if m.constraints[i].Violation(x) > tol {
			return false
		}
	}
	return true
}

// TotalViolation returns the sum of constraint violations.
func (m *Model) TotalViolation(x []bool) float64 {
	total := 0.0
	for i := range m.constraints {
		total += m.constraints[i].Violation(x)
	}
	return total
}

// Stats summarises the model's size.
type Stats struct {
	Vars, Constraints, EqConstraints, IneqConstraints int
	LinearTerms, QuadTerms, SquaredExprs              int
}

// Stats returns size statistics for the model.
func (m *Model) Stats() Stats {
	eq, ineq := m.CountConstraintSenses()
	return Stats{
		Vars:            m.NumVars(),
		Constraints:     m.NumConstraints(),
		EqConstraints:   eq,
		IneqConstraints: ineq,
		LinearTerms:     len(m.objLinear),
		QuadTerms:       len(m.objQuad),
		SquaredExprs:    len(m.objSquares),
	}
}

// String renders a short summary of the model shape.
func (m *Model) String() string {
	s := m.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "CQM{vars=%d constraints=%d (eq=%d ineq=%d) lin=%d quad=%d sq=%d}",
		s.Vars, s.Constraints, s.EqConstraints, s.IneqConstraints,
		s.LinearTerms, s.QuadTerms, s.SquaredExprs)
	return b.String()
}
