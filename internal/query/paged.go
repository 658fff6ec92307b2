package query

import (
	"context"

	"repro/internal/bitvec"
	"repro/internal/iostat"
	"repro/internal/pagestore"
	"repro/internal/table"
)

// PagedEBI adapts a page-charged encoded bitmap index: every selection
// faults its vectors' page runs through the buffer cache (and heatmap)
// before evaluating. Ranges use the discrete-domain IN rewrite and are
// unsupported on strings.
type PagedEBI[V ebiValue] struct{ Ix *pagestore.PagedIndex[V] }

// Eq implements ColumnIndex.
func (a PagedEBI[V]) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return a.column(Eq{Val: v})
}

// In implements ColumnIndex.
func (a PagedEBI[V]) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return a.column(In{Vals: vs})
}

// Range implements ColumnIndex.
func (a PagedEBI[V]) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	return a.column(Range{Lo: lo, Hi: hi})
}

func (a PagedEBI[V]) column(p Predicate) (*bitvec.Vector, iostat.Stats, error) {
	res, err := a.EvalLeaf(context.Background(), p, 1)
	return res.Rows, res.Stats, err
}

// EvalLeaf implements LeafIndex: the result carries this call's own page
// hits and misses. Sequentially, page fetches are attributed to the span
// in ctx; in parallel, pages are charged in the segment-major order the
// segmented engine reads them. Eq over NULL reads the NULL min-term
// without page charges.
func (a PagedEBI[V]) EvalLeaf(ctx context.Context, p Predicate, degree int) (LeafResult, error) {
	var res LeafResult
	if e, ok := p.(Eq); ok && e.Val.Null {
		res.Rows, res.Stats = a.Ix.Index().IsNull()
		return res, nil
	}
	vals, ok := leafValues(p, a.Ix.Index())
	if !ok {
		return res, ErrUnsupported
	}
	if degree > 1 {
		res.Rows, res.Stats, res.Pages = a.Ix.InParallel(vals, degree)
	} else {
		res.Rows, res.Stats, res.Pages = a.Ix.InContext(ctx, vals)
	}
	return res, nil
}

func (a PagedEBI[V]) ebi() EBI[V] { return EBI[V]{Ix: a.Ix.Index()} }

// FusedOp implements LeafIndex: the wrapped index evaluates every
// selection through the fused kernel.
func (PagedEBI[V]) FusedOp(op Op) bool { return EBI[V]{}.FusedOp(op) }

// TheoreticalMinVectors implements LeafIndex.
func (a PagedEBI[V]) TheoreticalMinVectors(delta int) int {
	return a.ebi().TheoreticalMinVectors(delta)
}

// PredictLeaf implements LeafIndex: page charges do not change the
// vector-read accounting, so the prediction is the wrapped index's.
func (a PagedEBI[V]) PredictLeaf(p Predicate) (iostat.Stats, uint64, bool) {
	return a.ebi().PredictLeaf(p)
}
