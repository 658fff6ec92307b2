package query

import (
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
	vals, ok := a.rangeVals(lo, hi)
	if !ok {
		return nil, iostat.Stats{}, ErrUnsupported
	}
	rows, st := a.Ix.In(vals)
	return rows, st, nil
}

// EvalLeafParallel implements ParallelIndex. Eq, In and the Range rewrite
// each run one reduced expression, which segments cleanly; Eq over NULL
// is not segmented and stays sequential. A parallel point selection
// bypasses the program cache.
func (a EBI[V]) EvalLeafParallel(p Predicate, degree int, sp *obs.Span) (*bitvec.Vector, iostat.Stats, error) {
	var vals []V
	switch p := p.(type) {
	case Eq:
		if p.Val.Null {
			return a.Eq(p.Val)
		}
		vals = []V{cellValue[V](p.Val)}
	case In:
		vals = cellValues[V](p.Vals)
	case Range:
		var ok bool
		if vals, ok = a.rangeVals(p.Lo, p.Hi); !ok {
			return nil, iostat.Stats{}, ErrUnsupported
		}
	default:
		return nil, iostat.Stats{}, ErrUnsupported
	}
	rows, st := a.Ix.InParallel(vals, degree, sp)
	return rows, st, nil
}

// FusedOp implements FusedIndex: every operation that reaches the index
// is fused; Range on string attributes never does.
func (EBI[V]) FusedOp(op Op) bool { return op != OpRange || isInt[V]() }

// TheoreticalMinVectors implements MinVectorsIndex.
func (a EBI[V]) TheoreticalMinVectors(delta int) int { return a.Ix.TheoreticalMinVectors(delta) }

// PredictLeafStats implements PredictLeafIndex, mirroring the adapter's
// rewrites. On a Synced index every prediction pins one epoch snapshot,
// so it is exact even while appends or a live re-encoding race the
// audited query (basis movement shows up as a PredictGen change). Range
// on strings has no model: the adapter refuses it and the executor's
// scan fallback depends on the table, not the encoding.
func (a EBI[V]) PredictLeafStats(p Predicate) (iostat.Stats, bool) {
	switch p := p.(type) {
	case Eq:
		if p.Val.Null {
			return a.Ix.PredictIsNullStats(), true
		}
		return a.Ix.PredictSelectionStats([]V{cellValue[V](p.Val)}), true
	case In:
		return a.Ix.PredictSelectionStats(cellValues[V](p.Vals)), true
	case Range:
		if vals, ok := a.rangeVals(p.Lo, p.Hi); ok {
			return a.Ix.PredictSelectionStats(vals), true
		}
	}
	return iostat.Stats{}, false
}

// PredictGen implements PredictLeafIndex.
func (a EBI[V]) PredictGen() uint64 { return a.Ix.PredictGen() }

// rangeVals lists the mapped domain values inside [lo, hi]; ok is false
// on string attributes.
func (a EBI[V]) rangeVals(lo, hi int64) ([]V, bool) {
	if !isInt[V]() {
		return nil, false
	}
	return inRange(a.Ix.Values(), lo, hi), true
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

// EvalLeafParallel implements ParallelIndex. Range reports
// ErrUnsupported: the comparison pass is stateful across vectors and is
// not segmented, so the planner falls back to the sequential Range.
func (a OrderedEBI) EvalLeafParallel(p Predicate, degree int, sp *obs.Span) (*bitvec.Vector, iostat.Stats, error) {
	if _, ok := p.(Range); ok {
		return nil, iostat.Stats{}, ErrUnsupported
	}
	return a.ebi().EvalLeafParallel(p, degree, sp)
}

// FusedOp implements FusedIndex: Range is the comparison pass, a
// different algorithm entirely.
func (OrderedEBI) FusedOp(op Op) bool { return op != OpRange }

// TheoreticalMinVectors implements MinVectorsIndex.
func (a OrderedEBI) TheoreticalMinVectors(delta int) int {
	return a.ebi().TheoreticalMinVectors(delta)
}

// PredictLeafStats implements PredictLeafIndex for Eq and In. The
// comparison pass's per-vector accounting is data-independent too but
// not program-compiled; it is out of scope here.
func (a OrderedEBI) PredictLeafStats(p Predicate) (iostat.Stats, bool) {
	if _, ok := p.(Range); ok {
		return iostat.Stats{}, false
	}
	return a.ebi().PredictLeafStats(p)
}

// PredictGen implements PredictLeafIndex.
func (a OrderedEBI) PredictGen() uint64 { return a.ebi().PredictGen() }

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
