package query

import (
	"context"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/iostat"
	"repro/internal/obs"
	"repro/internal/table"
)

// ebiValue is the attribute type an encoded-bitmap adapter reads from
// table cells: int64 or string columns.
type ebiValue interface{ int64 | string }

// ebiReader is the read surface of an encoded bitmap index handle;
// *core.Index and *core.Synced both implement it with one evaluator.
type ebiReader[V ebiValue] interface {
	Eq(v V) (*bitvec.Vector, iostat.Stats)
	In(values []V) (*bitvec.Vector, iostat.Stats)
	InParallel(values []V, degree int, sp *obs.Span) (*bitvec.Vector, iostat.Stats)
	IsNull() (*bitvec.Vector, iostat.Stats)
	Values() []V
	TheoreticalMinVectors(delta int) int
	PredictSelectionStats(values []V) iostat.Stats
	PredictIsNullStats() iostat.Stats
	PredictGen() uint64
}

// EBI adapts an encoded bitmap index over int64 or string values: a
// *core.Index, or a *core.Synced whose reads evaluate against an atomic
// epoch snapshot (safe to query while other goroutines append or a live
// re-encoding flips). Eq goes through the handle's compiled-program
// cache; In and the Range rewrite minimize afresh. Every operation
// evaluates one compiled reduced expression through the fused kernel.
type EBI[V ebiValue] struct{ Ix ebiReader[V] }

// EBIInt adapts an encoded bitmap index over int64 values.
type EBIInt = EBI[int64]

// SyncedEBIInt is EBIInt, named for adapters over a *core.Synced index.
type SyncedEBIInt = EBI[int64]

// Eq implements ColumnIndex; Eq NULL selects the NULL rows.
func (a EBI[V]) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	if v.Null {
		rows, st := a.Ix.IsNull()
		return rows, st, nil
	}
	rows, st := a.Ix.Eq(cellValue[V](v))
	return rows, st, nil
}

// In implements ColumnIndex; NULL cells select nothing.
func (a EBI[V]) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	rows, st := a.Ix.In(cellValues[V](vs))
	return rows, st, nil
}

// Range rewrites the interval into an IN-list over the mapped domain —
// the paper's "discrete domains" rewriting — and evaluates the reduced
// expression. String attributes have no ranges: ErrUnsupported.
func (a EBI[V]) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	vals, ok := leafValues(Range{Lo: lo, Hi: hi}, a.Ix)
	if !ok {
		return nil, iostat.Stats{}, ErrUnsupported
	}
	rows, st := a.Ix.In(vals)
	return rows, st, nil
}

// EvalLeaf implements LeafIndex. A sequential point selection goes
// through the handle's program cache; In, the Range rewrite and a
// parallel point selection each run one freshly reduced expression,
// which segments cleanly, with worker spans under the span in ctx. Eq
// over NULL is not segmented and runs sequentially at any degree.
func (a EBI[V]) EvalLeaf(ctx context.Context, p Predicate, degree int) (LeafResult, error) {
	if e, ok := p.(Eq); ok && (degree <= 1 || e.Val.Null) {
		return leafResult(a.Eq(e.Val))
	}
	vals, ok := leafValues(p, a.Ix)
	if !ok {
		return LeafResult{}, ErrUnsupported
	}
	var res LeafResult
	res.Rows, res.Stats = a.Ix.InParallel(vals, degree, obs.SpanFromContext(ctx))
	return res, nil
}

// FusedOp implements LeafIndex: every operation that reaches the index
// is fused; Range on string attributes never does.
func (EBI[V]) FusedOp(op Op) bool { return op != OpRange || isInt[V]() }

// TheoreticalMinVectors implements LeafIndex.
func (a EBI[V]) TheoreticalMinVectors(delta int) int { return a.Ix.TheoreticalMinVectors(delta) }

// PredictLeaf implements LeafIndex, mirroring the adapter's rewrites. On
// a Synced index every prediction pins one epoch snapshot, so it is exact
// even while appends or a live re-encoding race the audited query (basis
// movement shows up as a stamp change). Range on strings has no model:
// the adapter refuses it and the executor's scan fallback depends on the
// table, not the encoding.
func (a EBI[V]) PredictLeaf(p Predicate) (iostat.Stats, uint64, bool) {
	if e, ok := p.(Eq); ok && e.Val.Null {
		return a.Ix.PredictIsNullStats(), a.Ix.PredictGen(), true
	}
	vals, ok := leafValues(p, a.Ix)
	if !ok {
		return iostat.Stats{}, 0, false
	}
	return a.Ix.PredictSelectionStats(vals), a.Ix.PredictGen(), true
}

// OrderedEBI adapts an order-preserving encoded bitmap index: ranges run
// the MSB-first comparison pass, everything else is the EBI adapter over
// the wrapped index.
type OrderedEBI struct{ Ix *core.OrderedIndex[int64] }

func (a OrderedEBI) ebi() EBIInt { return EBIInt{Ix: a.Ix.Index()} }

// Eq implements ColumnIndex.
func (a OrderedEBI) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) { return a.ebi().Eq(v) }

// In implements ColumnIndex.
func (a OrderedEBI) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return a.ebi().In(vs)
}

// Range implements ColumnIndex.
func (a OrderedEBI) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	rows, st := a.Ix.Range(lo, hi)
	return rows, st, nil
}

// EvalLeaf implements LeafIndex. A parallel Range reports
// ErrUnsupported: the comparison pass is stateful across vectors and is
// not segmented, so it runs sequentially.
func (a OrderedEBI) EvalLeaf(ctx context.Context, p Predicate, degree int) (LeafResult, error) {
	if r, ok := p.(Range); ok {
		if degree > 1 {
			return LeafResult{}, ErrUnsupported
		}
		return leafResult(a.Range(r.Lo, r.Hi))
	}
	return a.ebi().EvalLeaf(ctx, p, degree)
}

// FusedOp implements LeafIndex: Range is the comparison pass, a
// different algorithm entirely.
func (OrderedEBI) FusedOp(op Op) bool { return op != OpRange }

// TheoreticalMinVectors implements LeafIndex.
func (a OrderedEBI) TheoreticalMinVectors(delta int) int {
	return a.ebi().TheoreticalMinVectors(delta)
}

// PredictLeaf implements LeafIndex for Eq and In. The comparison pass's
// per-vector accounting is data-independent too but not
// program-compiled; it is out of scope here.
func (a OrderedEBI) PredictLeaf(p Predicate) (iostat.Stats, uint64, bool) {
	if _, ok := p.(Range); ok {
		return iostat.Stats{}, 0, false
	}
	return a.ebi().PredictLeaf(p)
}

// leafValues lists the values a leaf selects from an index whose value
// domain is ix.Values(): an Eq's or In's non-NULL cells, or the domain
// values inside a Range. ok is false for Range on strings, which has no
// meaning, and for combinators.
func leafValues[V ebiValue](p Predicate, ix interface{ Values() []V }) ([]V, bool) {
	switch p := p.(type) {
	case Eq:
		if p.Val.Null {
			return nil, true
		}
		return []V{cellValue[V](p.Val)}, true
	case In:
		return cellValues[V](p.Vals), true
	case Range:
		if isInt[V]() {
			return inRange(ix.Values(), p.Lo, p.Hi), true
		}
	}
	return nil, false
}

// isInt reports whether V is int64.
func isInt[V ebiValue]() bool {
	var v V
	_, ok := any(&v).(*int64)
	return ok
}

// cellValue extracts a non-NULL cell's value.
func cellValue[V ebiValue](c table.Cell) V {
	var v V
	switch p := any(&v).(type) {
	case *int64:
		*p = c.I
	case *string:
		*p = c.S
	}
	return v
}

// cellValues extracts the non-NULL values of a cell list.
func cellValues[V ebiValue](vs []table.Cell) []V {
	vals := make([]V, 0, len(vs))
	for _, c := range vs {
		if !c.Null {
			vals = append(vals, cellValue[V](c))
		}
	}
	return vals
}

// inRange lists the int64 domain values inside [lo, hi].
func inRange[V ebiValue](domain []V, lo, hi int64) []V {
	var vals []V
	for i := range domain {
		if x, ok := any(&domain[i]).(*int64); ok && *x >= lo && *x <= hi {
			vals = append(vals, domain[i])
		}
	}
	return vals
}
