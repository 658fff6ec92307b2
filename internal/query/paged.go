package query

import (
	"context"

	"repro/internal/bitvec"
	"repro/internal/iostat"
	"repro/internal/pagestore"
	"repro/internal/table"
)

// CtxColumnIndex is the optional capability interface for access paths
// that want the evaluation context: a paged index uses it to nest its
// page-fetch work under the query's span tree. EvalLeafCtx must answer
// any leaf predicate (Eq/In/Range) with the exact rows and stats the
// plain ColumnIndex methods would return, or ErrUnsupported.
type CtxColumnIndex interface {
	EvalLeafCtx(ctx context.Context, p Predicate) (*bitvec.Vector, iostat.Stats, error)
}

// PageStatsIndex is the optional capability interface for access paths
// backed by a page cache. The planner diffs PageStats around each leaf
// to fold per-leaf page hits and misses into EXPLAIN ANALYZE.
type PageStatsIndex interface {
	PageStats() (hits, misses int)
}

// PagedEBI adapts a page-charged encoded bitmap index: every selection
// faults its vectors' page runs through the buffer cache (and heatmap)
// before evaluating. Ranges use the discrete-domain IN rewrite and are
// unsupported on strings.
type PagedEBI[V ebiValue] struct{ Ix *pagestore.PagedIndex[V] }

// Eq implements ColumnIndex.
func (a PagedEBI[V]) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return a.EvalLeafCtx(context.Background(), Eq{Val: v})
}

// In implements ColumnIndex.
func (a PagedEBI[V]) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return a.EvalLeafCtx(context.Background(), In{Vals: vs})
}

// Range implements ColumnIndex.
func (a PagedEBI[V]) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	return a.EvalLeafCtx(context.Background(), Range{Lo: lo, Hi: hi})
}

// EvalLeafCtx implements CtxColumnIndex: the plain methods' routing, with
// page fetches attributed to the span in ctx.
func (a PagedEBI[V]) EvalLeafCtx(ctx context.Context, p Predicate) (*bitvec.Vector, iostat.Stats, error) {
	var vals []V
	switch p := p.(type) {
	case Eq:
		if p.Val.Null {
			rows, st := a.Ix.Index().IsNull()
			return rows, st, nil
		}
		vals = []V{cellValue[V](p.Val)}
	case In:
		vals = cellValues[V](p.Vals)
	case Range:
		if !isInt[V]() {
			return nil, iostat.Stats{}, ErrUnsupported
		}
		vals = inRange(a.Ix.Index().Values(), p.Lo, p.Hi)
	default:
		return nil, iostat.Stats{}, ErrUnsupported
	}
	rows, st, _ := a.Ix.InContext(ctx, vals)
	return rows, st, nil
}

// PageStats implements PageStatsIndex with the cache's cumulative
// counters.
func (a PagedEBI[V]) PageStats() (hits, misses int) {
	s := a.Ix.Cache().Stats()
	return s.Hits, s.Misses
}

// TheoreticalMinVectors implements MinVectorsIndex.
func (a PagedEBI[V]) TheoreticalMinVectors(delta int) int {
	return a.Ix.Index().TheoreticalMinVectors(delta)
}
