package query

// FusedIndex is the optional marker interface an access-path index
// implements to report which leaf operations it evaluates through the
// fused single-pass kernel (internal/boolmin Program): one streaming pass
// over the operand vectors with no intermediate materialization, on both
// the sequential and the segmented-parallel route. The planner surfaces
// the answer as Choice.Fused, in EXPLAIN text (a " fused" suffix), and in
// plan JSON, so engine-path selection is visible per leaf.
//
// Fused-ness is a property of the (index, operation) pair, not a promise
// about a particular call's inputs: an operation is reported fused when
// its evaluation goes through the fused kernel whenever it reaches the
// index at all (degenerate empty selections included — a compiled
// constant-false program is still the fused path).
type FusedIndex interface {
	FusedOp(op Op) bool
}

// isFused reports whether a leaf routed to ix with op evaluates fused.
func isFused(ix ColumnIndex, op Op) bool {
	f, ok := ix.(FusedIndex)
	return ok && f.FusedOp(op)
}

// FusedOp implements FusedIndex: In and the interval-probing Range OR
// their operands in one fused pass over compressed word streams; Eq is a
// single-vector decompress with nothing to fuse.
func (a CompressedSimpleInt) FusedOp(op Op) bool { return op != OpEq }
