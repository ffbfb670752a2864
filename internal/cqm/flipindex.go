package cqm

// FlipIndex is the reverse of the evaluator's membership layout: for
// every squared expression and every constraint, the variables it
// contains. Together with the quadratic adjacency it answers "whose
// FlipDelta can change when v flips?", which lets a search that keeps
// every variable's flip delta cached recompute only that neighbourhood
// after a move instead of rescanning the whole model.
//
// FlipDelta(w) reads x_w, the values of w's quadratic neighbours, and
// the current values of the squared expressions and constraints that
// contain w. Flipping v changes x_v and the values of the expressions
// and constraints containing v, and nothing else, so FlipDelta(w) can
// change only when w is v, a quadratic neighbour of v, or a member of
// an expression or constraint that contains v. Every other variable's
// delta is bit-for-bit what it was before the flip.
//
// The index is immutable, cached on the model next to the evaluator
// layout and invalidated by the same mutations; it is built on the
// first FlipIndex call, so solvers that never ask for it never pay for
// it.
type FlipIndex struct {
	lay *layout

	// Members of squared expression si: sqMem in
	// [sqMemOff[si], sqMemOff[si+1]).
	sqMemOff []int32
	sqMem    []int32

	// Members of constraint ci: conMem in [conMemOff[ci], conMemOff[ci+1]).
	conMemOff []int32
	conMem    []int32
}

// FlipIndex returns the model's cached flip-neighbourhood index,
// building it on first use. Safe for concurrent use; mutation methods
// invalidate it.
func (m *Model) FlipIndex() *FlipIndex {
	if fi := m.flipIndexCache.Load(); fi != nil {
		return fi
	}
	lay := m.evalLayout()
	m.layoutMu.Lock()
	defer m.layoutMu.Unlock()
	if fi := m.flipIndexCache.Load(); fi != nil {
		return fi
	}
	fi := buildFlipIndex(m, lay)
	m.flipIndexCache.Store(fi)
	return fi
}

func buildFlipIndex(m *Model, lay *layout) *FlipIndex {
	fi := &FlipIndex{lay: lay}
	fi.sqMemOff, fi.sqMem = memberCSR(len(m.objSquares), func(i int) *LinExpr { return &m.objSquares[i] })
	fi.conMemOff, fi.conMem = memberCSR(len(m.constraints), func(i int) *LinExpr { return &m.constraints[i].Expr })
	return fi
}

// memberCSR flattens the variable lists of count expressions into CSR
// form. Each list has as many entries as the layout's membership
// arrays, which already passed the int32 size check, so every offset
// fits.
func memberCSR(count int, expr func(i int) *LinExpr) (off, mem []int32) {
	off = make([]int32, count+1)
	for i := 0; i < count; i++ {
		off[i+1] = off[i] + int32(len(expr(i).Terms))
	}
	mem = make([]int32, 0, off[count])
	for i := 0; i < count; i++ {
		for _, t := range expr(i).Terms {
			mem = append(mem, int32(t.Var))
		}
	}
	return off, mem
}

// Span returns how many entries AppendAffected appends for v (v itself,
// its quadratic neighbours, and the members of every expression and
// constraint containing v, duplicates included). It is an upper bound
// on the number of distinct variables whose flip delta a flip of v can
// change, and the cost of walking that neighbourhood. Cost is
// O(memberships of v).
func (fi *FlipIndex) Span(v VarID) int {
	lay := fi.lay
	s := 1 + int(lay.quadOff[v+1]-lay.quadOff[v])
	for i, end := lay.sqOff[v], lay.sqOff[v+1]; i < end; i++ {
		si := lay.sqIdx[i]
		s += int(fi.sqMemOff[si+1] - fi.sqMemOff[si])
	}
	for i, end := lay.conOff[v], lay.conOff[v+1]; i < end; i++ {
		ci := lay.conIdx[i]
		s += int(fi.conMemOff[ci+1] - fi.conMemOff[ci])
	}
	return s
}

// AppendAffected appends to dst every variable whose FlipDelta can
// change when v flips: v, its quadratic neighbours, and the members of
// every squared expression and constraint containing v. A variable may
// appear more than once. It allocates only when dst lacks capacity.
func (fi *FlipIndex) AppendAffected(dst []int32, v VarID) []int32 {
	lay := fi.lay
	dst = append(dst, int32(v))
	dst = append(dst, lay.quadVar[lay.quadOff[v]:lay.quadOff[v+1]]...)
	for i, end := lay.sqOff[v], lay.sqOff[v+1]; i < end; i++ {
		si := lay.sqIdx[i]
		dst = append(dst, fi.sqMem[fi.sqMemOff[si]:fi.sqMemOff[si+1]]...)
	}
	for i, end := lay.conOff[v], lay.conOff[v+1]; i < end; i++ {
		ci := lay.conIdx[i]
		dst = append(dst, fi.conMem[fi.conMemOff[ci]:fi.conMemOff[ci+1]]...)
	}
	return dst
}
