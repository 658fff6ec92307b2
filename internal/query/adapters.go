package query

import (
	"repro/internal/bitvec"
	"repro/internal/bsi"
	"repro/internal/btree"
	"repro/internal/iostat"
	"repro/internal/projidx"
	"repro/internal/simplebitmap"
	"repro/internal/table"
)

// Simple adapts a simple bitmap index over int64 or string values.
type Simple[V ebiValue] struct{ Ix *simplebitmap.Index[V] }

// Eq implements ColumnIndex; Eq NULL selects the NULL rows.
func (a Simple[V]) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	if v.Null {
		rows, st := a.Ix.IsNull()
		return rows, st, nil
	}
	rows, st := a.Ix.Eq(cellValue[V](v))
	return rows, st, nil
}

// In implements ColumnIndex; NULL cells select nothing.
func (a Simple[V]) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	rows, st := a.Ix.In(cellValues[V](vs))
	return rows, st, nil
}

// Range ORs one vector per qualifying value: the paper's c_s = δ cost.
// String attributes have no ranges: ErrUnsupported.
func (a Simple[V]) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	if !isInt[V]() {
		return nil, iostat.Stats{}, ErrUnsupported
	}
	rows, st := a.Ix.In(inRange(a.Ix.Values(), lo, hi))
	return rows, st, nil
}

// BSIAdapter adapts a bit-sliced index over non-negative int64 keys.
type BSIAdapter struct{ Ix *bsi.Index }

// Eq implements ColumnIndex.
func (a BSIAdapter) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	if v.Null || v.I < 0 {
		return bitvec.New(a.Ix.Len()), iostat.Stats{}, nil
	}
	rows, st := a.Ix.Eq(uint64(v.I))
	return rows, st, nil
}

// In ANDs/ORs per-value equality probes.
func (a BSIAdapter) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	out := bitvec.New(a.Ix.Len())
	var st iostat.Stats
	for _, v := range vs {
		if v.Null || v.I < 0 {
			continue
		}
		rows, s := a.Ix.Eq(uint64(v.I))
		st.Add(s)
		out.Or(rows)
		st.BoolOps++
	}
	return out, st, nil
}

// Range implements ColumnIndex via the O'Neil–Quass slice algorithm.
func (a BSIAdapter) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	if hi < 0 {
		return bitvec.New(a.Ix.Len()), iostat.Stats{}, nil
	}
	if lo < 0 {
		lo = 0
	}
	rows, st := a.Ix.Range(uint64(lo), uint64(hi))
	return rows, st, nil
}

// BTreeAdapter adapts the value-list B-tree baseline.
type BTreeAdapter struct {
	Ix    *btree.Tree
	NRows int
}

// Eq implements ColumnIndex.
func (a BTreeAdapter) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	if v.Null || v.I < 0 {
		return bitvec.New(a.NRows), iostat.Stats{}, nil
	}
	rows, st := a.Ix.Eq(uint64(v.I), a.NRows)
	return rows, st, nil
}

// In implements ColumnIndex.
func (a BTreeAdapter) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	out := bitvec.New(a.NRows)
	var st iostat.Stats
	for _, v := range vs {
		if v.Null || v.I < 0 {
			continue
		}
		rows, s := a.Ix.Eq(uint64(v.I), a.NRows)
		st.Add(s)
		out.Or(rows)
		st.BoolOps++
	}
	return out, st, nil
}

// Range implements ColumnIndex.
func (a BTreeAdapter) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	if hi < 0 {
		return bitvec.New(a.NRows), iostat.Stats{}, nil
	}
	if lo < 0 {
		lo = 0
	}
	rows, st := a.Ix.Range(uint64(lo), uint64(hi), a.NRows)
	return rows, st, nil
}

// ProjAdapter adapts a projection index over int64 values.
type ProjAdapter struct{ Ix *projidx.Index[int64] }

// Eq implements ColumnIndex.
func (a ProjAdapter) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	if v.Null {
		return bitvec.New(a.Ix.Len()), iostat.Stats{}, nil
	}
	rows, st := a.Ix.Eq(v.I)
	return rows, st, nil
}

// In implements ColumnIndex.
func (a ProjAdapter) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	vals := make([]int64, 0, len(vs))
	for _, v := range vs {
		if !v.Null {
			vals = append(vals, v.I)
		}
	}
	rows, st := a.Ix.In(vals)
	return rows, st, nil
}

// Range implements ColumnIndex.
func (a ProjAdapter) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	rows, st := a.Ix.Range(lo, hi)
	return rows, st, nil
}

// CompressedSimpleInt adapts a WAH-compressed simple bitmap index over
// int64 values. The compressed index does not expose its value domain, so
// Range enumerates the integer interval itself — fine for the narrow
// domains the compressed index targets, and priced by the same c_s = δ
// model as the uncompressed form.
type CompressedSimpleInt struct {
	Ix *simplebitmap.CompressedIndex[int64]
}

// Eq implements ColumnIndex.
func (a CompressedSimpleInt) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	if v.Null {
		rows, st := a.Ix.IsNull()
		return rows, st, nil
	}
	rows, st := a.Ix.Eq(v.I)
	return rows, st, nil
}

// In implements ColumnIndex.
func (a CompressedSimpleInt) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	vals := make([]int64, 0, len(vs))
	for _, v := range vs {
		if !v.Null {
			vals = append(vals, v.I)
		}
	}
	rows, st := a.Ix.In(vals)
	return rows, st, nil
}

// Range probes every integer in [lo, hi]; values outside the indexed
// domain contribute nothing.
func (a CompressedSimpleInt) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	var vals []int64
	for v := lo; v <= hi; v++ {
		vals = append(vals, v)
	}
	rows, st := a.Ix.In(vals)
	return rows, st, nil
}
