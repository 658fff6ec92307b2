package query

import (
	"context"
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/iostat"
	"repro/internal/pagestore"
)

// LeafIndex is the one optional extension of ColumnIndex, implemented by
// the encoded-bitmap family (EBI, OrderedEBI, PagedEBI) and the
// WAH-compressed simple bitmap. It carries one leaf evaluation plus the
// static facts the planner, EXPLAIN and the audit plane read; an index
// without it is evaluated through its ColumnIndex methods, sequentially,
// with no facts.
type LeafIndex interface {
	ColumnIndex
	// EvalLeaf answers a leaf predicate (Eq, In or Range) with exactly the
	// rows and stats of the matching ColumnIndex method. degree is the
	// executor count the parallel gate picked (1 = sequential); an index
	// that cannot evaluate the leaf at that degree returns ErrUnsupported
	// and is asked again at degree 1. ctx carries the leaf's span, under
	// which the index nests its own work (page fetches, parallel workers).
	EvalLeaf(ctx context.Context, p Predicate, degree int) (LeafResult, error)
	// FusedOp reports whether op evaluates through the fused single-pass
	// kernel (internal/boolmin Program) whenever it reaches the index —
	// degenerate empty selections included, since a compiled
	// constant-false program is still the fused path.
	FusedOp(op Op) bool
	// TheoreticalMinVectors is the Theorem 2.2/2.3 minimum number of
	// bitmap vectors any encoding could read for a selection of delta
	// values, or -1 for an index with no encoding to measure against.
	TheoreticalMinVectors(delta int) int
	// PredictLeaf returns the exact Stats EvalLeaf would report for p,
	// computed from the encoding alone, and the stamp of that basis
	// (equal stamps mean the same encoding epoch, code-space generation
	// and logical length). ok is false when the leaf has no analytic
	// model.
	PredictLeaf(p Predicate) (st iostat.Stats, gen uint64, ok bool)
}

// LeafResult is one leaf evaluation's answer: the rows, the access cost,
// and the buffer-cache traffic this call charged (zero for indexes with
// no page cache behind them).
type LeafResult struct {
	Rows  *bitvec.Vector
	Stats iostat.Stats
	Pages pagestore.Stats
}

// asLeaf returns ix's LeafIndex extension; it is the one place the
// package asks for it.
func asLeaf(ix ColumnIndex) (LeafIndex, bool) {
	li, ok := ix.(LeafIndex)
	return li, ok
}

// evalLeaf evaluates a leaf predicate on one index at the given degree,
// re-running it sequentially when the index refuses the parallel form,
// and returns the degree it actually ran with. Only a sequential refusal
// reaches the caller as ErrUnsupported.
func evalLeaf(ctx context.Context, ix ColumnIndex, p Predicate, degree int) (LeafResult, int, error) {
	li, ok := asLeaf(ix)
	if !ok {
		res, err := columnLeaf(ix, p)
		return res, 1, err
	}
	if degree > 1 {
		res, err := li.EvalLeaf(ctx, p, degree)
		if err != ErrUnsupported {
			return res, degree, err
		}
	}
	res, err := li.EvalLeaf(ctx, p, 1)
	return res, 1, err
}

// columnLeaf evaluates a leaf predicate through ix's ColumnIndex methods.
func columnLeaf(ix ColumnIndex, p Predicate) (LeafResult, error) {
	switch p := p.(type) {
	case Eq:
		return leafResult(ix.Eq(p.Val))
	case In:
		return leafResult(ix.In(p.Vals))
	case Range:
		return leafResult(ix.Range(p.Lo, p.Hi))
	}
	return LeafResult{}, fmt.Errorf("query: %T is not a leaf predicate", p)
}

// leafResult packs a ColumnIndex method's return values.
func leafResult(rows *bitvec.Vector, st iostat.Stats, err error) (LeafResult, error) {
	return LeafResult{Rows: rows, Stats: st}, err
}

// leafFacts returns the static facts of a leaf routed to ix: whether op
// is fused, and its vector reads beyond the theoretical minimum for its
// selection width. delta is the planner's width; for range leaves it is
// the value-interval width, an upper bound on the mapped δ, which can
// only understate the excess.
func leafFacts(ix ColumnIndex, op Op, delta, vectorsRead int) (fused bool, excess int) {
	li, ok := asLeaf(ix)
	if !ok {
		return false, 0
	}
	if floor := li.TheoreticalMinVectors(delta); floor >= 0 && vectorsRead > floor {
		excess = vectorsRead - floor
	}
	return li.FusedOp(op), excess
}
