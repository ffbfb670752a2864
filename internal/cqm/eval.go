package cqm

import (
	"fmt"
	"math"

	"repro/internal/bits"
)

// layout is the immutable, cache-packed view of a model that the hot
// loop walks: every slice-of-slices adjacency of the old evaluator is
// flattened into CSR-style arrays (one offset index plus flat term
// arrays), so a flip of variable v reads three contiguous ranges
// instead of chasing per-variable slice headers across the heap.
//
// A layout is built once per model and shared by every evaluator on
// it (annealing restarts, tempering replicas, portfolio workers); the
// model caches it and invalidates on mutation.
type layout struct {
	n int

	// linCoef is the merged linear objective coefficient per variable.
	linCoef []float64

	// Quadratic adjacency: neighbours of v are quadVar/quadCoef in
	// [quadOff[v], quadOff[v+1]).
	quadOff  []int32
	quadVar  []int32
	quadCoef []float64

	// Squared-expression memberships of v: sqIdx/sqCoef in
	// [sqOff[v], sqOff[v+1]).
	sqOff  []int32
	sqIdx  []int32
	sqCoef []float64

	// Constraint memberships of v: conIdx/conCoef in
	// [conOff[v], conOff[v+1]).
	conOff  []int32
	conIdx  []int32
	conCoef []float64

	// Per-constraint feasible band [lo, hi]: Eq pins lo == hi == RHS,
	// Le leaves lo at -Inf, Ge leaves hi at +Inf. Encoding the sense as
	// a band keeps the penalty kernel branch-lean: the violation gap is
	// max(0, lhs-hi) + max(0, lo-lhs) for every sense.
	conLo []float64
	conHi []float64
}

const maxLayoutTerms = math.MaxInt32

func buildLayout(m *Model) *layout {
	n := m.NumVars()
	if n > maxLayoutTerms {
		panic(fmt.Sprintf("cqm: %d variables exceed the evaluator's int32 layout limit", n))
	}
	lay := &layout{
		n:       n,
		linCoef: make([]float64, n),
		quadOff: make([]int32, n+1),
		sqOff:   make([]int32, n+1),
		conOff:  make([]int32, n+1),
		conLo:   make([]float64, len(m.constraints)),
		conHi:   make([]float64, len(m.constraints)),
	}
	for _, t := range m.objLinear {
		lay.linCoef[t.Var] += t.Coef
	}

	// Counting-sort each adjacency into CSR form. Iteration order is
	// the old evaluator's append order, so per-variable term order — and
	// with it every float accumulation order downstream — is preserved
	// exactly.
	counts := make([]int32, n)
	for _, q := range m.objQuad {
		counts[q.A]++
		counts[q.B]++
	}
	total := fillOffsets(lay.quadOff, counts)
	lay.quadVar = make([]int32, total)
	lay.quadCoef = make([]float64, total)
	cursor := append([]int32(nil), lay.quadOff[:n]...)
	for _, q := range m.objQuad {
		i := cursor[q.A]
		cursor[q.A]++
		lay.quadVar[i] = int32(q.B)
		lay.quadCoef[i] = q.Coef
		i = cursor[q.B]
		cursor[q.B]++
		lay.quadVar[i] = int32(q.A)
		lay.quadCoef[i] = q.Coef
	}

	for i := range counts {
		counts[i] = 0
	}
	for si := range m.objSquares {
		for _, t := range m.objSquares[si].Terms {
			counts[t.Var]++
		}
	}
	total = fillOffsets(lay.sqOff, counts)
	lay.sqIdx = make([]int32, total)
	lay.sqCoef = make([]float64, total)
	copy(cursor, lay.sqOff[:n])
	for si := range m.objSquares {
		for _, t := range m.objSquares[si].Terms {
			i := cursor[t.Var]
			cursor[t.Var]++
			lay.sqIdx[i] = int32(si)
			lay.sqCoef[i] = t.Coef
		}
	}

	for i := range counts {
		counts[i] = 0
	}
	for ci := range m.constraints {
		for _, t := range m.constraints[ci].Expr.Terms {
			counts[t.Var]++
		}
	}
	total = fillOffsets(lay.conOff, counts)
	lay.conIdx = make([]int32, total)
	lay.conCoef = make([]float64, total)
	copy(cursor, lay.conOff[:n])
	for ci := range m.constraints {
		for _, t := range m.constraints[ci].Expr.Terms {
			i := cursor[t.Var]
			cursor[t.Var]++
			lay.conIdx[i] = int32(ci)
			lay.conCoef[i] = t.Coef
		}
	}

	for ci := range m.constraints {
		c := &m.constraints[ci]
		switch c.Sense {
		case Eq:
			lay.conLo[ci], lay.conHi[ci] = c.RHS, c.RHS
		case Le:
			lay.conLo[ci], lay.conHi[ci] = math.Inf(-1), c.RHS
		case Ge:
			lay.conLo[ci], lay.conHi[ci] = c.RHS, math.Inf(1)
		}
	}
	return lay
}

// fillOffsets turns per-variable counts into CSR offsets (off has
// len(counts)+1 entries) and returns the total term count.
func fillOffsets(off []int32, counts []int32) int {
	var total int64
	for i, c := range counts {
		off[i] = int32(total)
		total += int64(c)
	}
	if total > maxLayoutTerms {
		panic(fmt.Sprintf("cqm: %d terms exceed the evaluator's int32 layout limit", total))
	}
	off[len(counts)] = int32(total)
	return int(total)
}

// bandGap returns the constraint violation gap of LHS value lhs against
// the feasible band [lo, hi]: 0 inside the band, the distance to the
// nearest bound outside it. Exactly one of the two max terms can be
// positive, so the value matches the old per-sense switch bit for bit.
func bandGap(lhs, lo, hi float64) float64 {
	over := lhs - hi
	if over < 0 {
		over = 0
	}
	under := lo - lhs
	if under < 0 {
		under = 0
	}
	return over + under
}

// Evaluator maintains an assignment for a model and supports O(degree)
// energy-delta queries for single-bit flips. It is the hot path of the
// annealing solvers: a flip of variable v touches only the squared
// expressions and constraints containing v, found through the model's
// flat CSR layout; the assignment itself is a packed uint64 bitset.
//
// The penalized energy is
//
//	E(x) = objective(x) + sum_c w_c * pen_c(x)
//
// where pen_c is the squared constraint violation (smooth, so annealing
// can descend into the feasible region) and w_c is a per-constraint
// penalty weight.
//
// An Evaluator is not safe for concurrent use; annealing replicas each own
// one. The immutable layout is shared between evaluators of one model.
type Evaluator struct {
	m   *Model
	lay *layout
	x   bits.Set

	penalty []float64 // per-constraint penalty weight

	sqVal  []float64 // current value of each squared objective expression
	conVal []float64 // current LHS value of each constraint

	objLinear float64 // current linear + offset objective value
	objQuad   float64 // current plain-quadratic objective value
	energy    float64 // current penalized energy
}

// NewEvaluator builds an evaluator with every variable set to false and a
// uniform constraint penalty weight. The flat adjacency layout is cached
// on the model, so constructing additional evaluators (annealing
// restarts, tempering replicas) costs only the mutable state.
func NewEvaluator(m *Model, penalty float64) *Evaluator {
	n := m.NumVars()
	ev := &Evaluator{
		m:       m,
		lay:     m.evalLayout(),
		x:       bits.New(n),
		penalty: make([]float64, m.NumConstraints()),
		sqVal:   make([]float64, len(m.objSquares)),
		conVal:  make([]float64, m.NumConstraints()),
	}
	for i := range ev.penalty {
		ev.penalty[i] = penalty
	}
	ev.Reset(nil)
	return ev
}

// Model returns the model this evaluator is bound to.
func (ev *Evaluator) Model() *Model { return ev.m }

// LayoutCurrent reports whether the evaluator's flat layout is still the
// model's current one; mutating the model invalidates it. Solvers that
// pool evaluators across runs check this before reuse and rebuild when
// the model changed underneath them.
func (ev *Evaluator) LayoutCurrent() bool { return ev.lay == ev.m.evalLayout() }

// SetPenalty overrides the penalty weight for one constraint.
func (ev *Evaluator) SetPenalty(constraint int, w float64) {
	ev.penalty[constraint] = w
	ev.recomputeEnergy()
}

// SetAllPenalties resets every constraint to a uniform penalty weight;
// pooled evaluators use it to restore the starting weights between
// annealing restarts without rebuilding any state.
func (ev *Evaluator) SetAllPenalties(w float64) {
	for i := range ev.penalty {
		ev.penalty[i] = w
	}
	ev.recomputeEnergy()
}

// ScalePenalties multiplies all penalty weights by factor; annealers use
// this to tighten constraints over time.
func (ev *Evaluator) ScalePenalties(factor float64) {
	for i := range ev.penalty {
		ev.penalty[i] *= factor
	}
	ev.recomputeEnergy()
}

// Reset sets the assignment (nil means all-false) and recomputes all
// cached values from scratch.
func (ev *Evaluator) Reset(x []bool) {
	n := ev.m.NumVars()
	if x == nil {
		ev.x.Clear()
	} else {
		if len(x) != n {
			panic(fmt.Sprintf("cqm: Reset with %d values for %d variables", len(x), n))
		}
		ev.x.PackBools(x)
	}
	ev.refresh()
}

// ResetBits sets the assignment from a packed bitset (which must cover
// the model's variables) and recomputes all cached values from scratch.
func (ev *Evaluator) ResetBits(s bits.Set) {
	if len(s) != len(ev.x) {
		panic(fmt.Sprintf("cqm: ResetBits with %d words for %d", len(s), len(ev.x)))
	}
	ev.x.CopyFrom(s)
	ev.refresh()
}

// refresh recomputes every cached value from the packed assignment.
// Accumulation order matches the original slice-walking evaluator term
// for term, so the cached floats are bit-identical to a fresh build.
func (ev *Evaluator) refresh() {
	ev.objLinear = ev.m.objOffset
	for _, t := range ev.m.objLinear {
		if ev.x.Get(int(t.Var)) {
			ev.objLinear += t.Coef
		}
	}
	ev.objQuad = 0
	for _, q := range ev.m.objQuad {
		if ev.x.Get(int(q.A)) && ev.x.Get(int(q.B)) {
			ev.objQuad += q.Coef
		}
	}
	for si := range ev.m.objSquares {
		e := &ev.m.objSquares[si]
		v := e.Offset
		for _, t := range e.Terms {
			if ev.x.Get(int(t.Var)) {
				v += t.Coef
			}
		}
		ev.sqVal[si] = v
	}
	for ci := range ev.m.constraints {
		e := &ev.m.constraints[ci].Expr
		v := e.Offset
		for _, t := range e.Terms {
			if ev.x.Get(int(t.Var)) {
				v += t.Coef
			}
		}
		ev.conVal[ci] = v
	}
	ev.recomputeEnergy()
}

func (ev *Evaluator) recomputeEnergy() {
	e := ev.objLinear + ev.objQuad
	for _, v := range ev.sqVal {
		e += v * v
	}
	lo, hi := ev.lay.conLo, ev.lay.conHi
	for ci, lhs := range ev.conVal {
		gap := bandGap(lhs, lo[ci], hi[ci])
		e += ev.penalty[ci] * (gap * gap)
	}
	ev.energy = e
}

// Energy returns the current penalized energy.
func (ev *Evaluator) Energy() float64 { return ev.energy }

// ObjectiveValue returns the unpenalized objective at the current
// assignment.
func (ev *Evaluator) ObjectiveValue() float64 {
	e := ev.objLinear + ev.objQuad
	for _, v := range ev.sqVal {
		e += v * v
	}
	return e
}

// PenaltyValue returns the weighted constraint penalty at the current
// assignment.
func (ev *Evaluator) PenaltyValue() float64 { return ev.energy - ev.ObjectiveValue() }

// Feasible reports whether the current assignment satisfies every
// constraint within tol.
func (ev *Evaluator) Feasible(tol float64) bool {
	lo, hi := ev.lay.conLo, ev.lay.conHi
	for ci, lhs := range ev.conVal {
		if bandGap(lhs, lo[ci], hi[ci]) > tol {
			return false
		}
	}
	return true
}

// Get returns the current value of variable v.
func (ev *Evaluator) Get(v VarID) bool { return ev.x.Get(int(v)) }

// Words returns the packed assignment as a read-only view; callers
// snapshot it with bits.Set.CopyFrom instead of allocating a []bool.
func (ev *Evaluator) Words() bits.Set { return ev.x }

// Assignment returns a copy of the current assignment.
func (ev *Evaluator) Assignment() []bool { return ev.x.ToBools(ev.lay.n) }

// AppendAssignment appends the current assignment to dst and returns it.
func (ev *Evaluator) AppendAssignment(dst []bool) []bool {
	return ev.x.AppendBools(dst, ev.lay.n)
}

// FlipDelta returns the penalized-energy change that flipping variable v
// would cause, without changing state. Cost is O(degree of v).
func (ev *Evaluator) FlipDelta(v VarID) float64 {
	lay := ev.lay
	x := ev.x
	d := 1.0
	if x.Get(int(v)) {
		d = -1.0
	}
	delta := d * lay.linCoef[v]
	for i, end := lay.quadOff[v], lay.quadOff[v+1]; i < end; i++ {
		if x.Get(int(lay.quadVar[i])) {
			delta += d * lay.quadCoef[i]
		}
	}
	for i, end := lay.sqOff[v], lay.sqOff[v+1]; i < end; i++ {
		old := ev.sqVal[lay.sqIdx[i]]
		nv := old + d*lay.sqCoef[i]
		delta += nv*nv - old*old
	}
	for i, end := lay.conOff[v], lay.conOff[v+1]; i < end; i++ {
		ci := lay.conIdx[i]
		old := ev.conVal[ci]
		nv := old + d*lay.conCoef[i]
		lo, hi := lay.conLo[ci], lay.conHi[ci]
		ng := bandGap(nv, lo, hi)
		og := bandGap(old, lo, hi)
		delta += ev.penalty[ci] * (ng*ng - og*og)
	}
	return delta
}

// CommitFlip commits a flip of variable v whose energy delta was just
// computed by FlipDelta (with no state change in between). It updates
// the cached expression values without re-deriving the penalty terms,
// so an accepted move costs one full delta scan plus one cheap update
// scan instead of two full scans.
func (ev *Evaluator) CommitFlip(v VarID, delta float64) {
	lay := ev.lay
	x := ev.x
	d := 1.0
	if x.Get(int(v)) {
		d = -1.0
	}
	ev.objLinear += d * lay.linCoef[v]
	for i, end := lay.quadOff[v], lay.quadOff[v+1]; i < end; i++ {
		if x.Get(int(lay.quadVar[i])) {
			ev.objQuad += d * lay.quadCoef[i]
		}
	}
	for i, end := lay.sqOff[v], lay.sqOff[v+1]; i < end; i++ {
		si := lay.sqIdx[i]
		ev.sqVal[si] += d * lay.sqCoef[i]
	}
	for i, end := lay.conOff[v], lay.conOff[v+1]; i < end; i++ {
		ci := lay.conIdx[i]
		ev.conVal[ci] += d * lay.conCoef[i]
	}
	ev.x.Flip(int(v))
	ev.energy += delta
}

// Flip commits a flip of variable v, updating all cached values in
// O(degree of v), and returns the energy change. It is FlipDelta and
// CommitFlip fused into one walk over v's memberships: every term adds
// to the delta and updates its cached value in the same step, in
// FlipDelta's order, so the result is bit-identical to the two-pass
// form. (A model's squared expressions and constraints hold each
// variable at most once, so a membership never sees a value its own
// walk already updated.)
func (ev *Evaluator) Flip(v VarID) float64 {
	lay := ev.lay
	x := ev.x
	d := 1.0
	if x.Get(int(v)) {
		d = -1.0
	}
	delta := d * lay.linCoef[v]
	ev.objLinear += d * lay.linCoef[v]
	for i, end := lay.quadOff[v], lay.quadOff[v+1]; i < end; i++ {
		if x.Get(int(lay.quadVar[i])) {
			delta += d * lay.quadCoef[i]
			ev.objQuad += d * lay.quadCoef[i]
		}
	}
	for i, end := lay.sqOff[v], lay.sqOff[v+1]; i < end; i++ {
		si := lay.sqIdx[i]
		old := ev.sqVal[si]
		nv := old + d*lay.sqCoef[i]
		delta += nv*nv - old*old
		ev.sqVal[si] = nv
	}
	for i, end := lay.conOff[v], lay.conOff[v+1]; i < end; i++ {
		ci := lay.conIdx[i]
		old := ev.conVal[ci]
		nv := old + d*lay.conCoef[i]
		lo, hi := lay.conLo[ci], lay.conHi[ci]
		ng := bandGap(nv, lo, hi)
		og := bandGap(old, lo, hi)
		delta += ev.penalty[ci] * (ng*ng - og*og)
		ev.conVal[ci] = nv
	}
	x.Flip(int(v))
	ev.energy += delta
	return delta
}
