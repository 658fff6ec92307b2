package core

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/encoding"
	"repro/internal/iostat"
)

// RangeIndex is the range-based encoded bitmap index of Section 2.3: the
// attribute domain is partitioned by the predefined range selections
// (Figure 7) and the partitions — not the individual values — are encoded
// (Figure 8). Predefined selections then reduce to expressions over very
// few vectors; ad-hoc ranges that do not align with partition boundaries
// return a candidate superset flagged as inexact.
type RangeIndex struct {
	ix    *Index[encoding.Interval]
	parts []encoding.Interval
	lo    int64
	hi    int64
}

// BuildRangeIndex partitions [lo, hi) by the predefined selections,
// searches for an encoding optimized for them, and indexes the column.
func BuildRangeIndex(column []int64, lo, hi int64, preds []encoding.Interval, searchOpt *encoding.SearchOptions) (*RangeIndex, error) {
	var so encoding.SearchOptions
	if searchOpt != nil {
		so = *searchOpt
	} else {
		so.UseDontCares = true
	}
	// The inner index reserves code 0 for void tuples; the search must
	// know, or the reservation would disturb its optimized structure.
	so.ReserveZeroCode = true
	mapping, parts, err := encoding.RangeEncoding(lo, hi, preds, &so)
	if err != nil {
		return nil, err
	}
	ix, err := newIndex(parts, &Options[encoding.Interval]{Mapping: mapping})
	if err != nil {
		return nil, err
	}
	rows := make([]encoding.Interval, len(column))
	for i, v := range column {
		part, ok := encoding.IntervalFor(parts, v)
		if !ok {
			return nil, fmt.Errorf("core: value %d outside indexed domain [%d,%d)", v, lo, hi)
		}
		rows[i] = part
	}
	if err := ix.appendColumn(rows, nil); err != nil {
		return nil, err
	}
	return &RangeIndex{ix: ix, parts: parts, lo: lo, hi: hi}, nil
}

// Len returns the number of rows.
func (ri *RangeIndex) Len() int { return ri.ix.Len() }

// K returns the number of bitmap vectors: ceil(log2 #partitions) — the
// paper's point that encoded bitmap indexing handles many small partitions
// where simple range-based bitmaps need one vector each.
func (ri *RangeIndex) K() int { return ri.ix.K() }

// Partitions returns the domain partitions in order.
func (ri *RangeIndex) Partitions() []encoding.Interval {
	return append([]encoding.Interval(nil), ri.parts...)
}

// Index exposes the underlying encoded bitmap index.
func (ri *RangeIndex) Index() *Index[encoding.Interval] { return ri.ix }

// Select returns the rows with lo <= value < hi. exact is true when the
// query range aligns with partition boundaries (in particular for every
// predefined selection); otherwise the result is the tightest candidate
// superset (all partitions overlapping the query) and the caller must
// post-filter the boundary partitions against base data.
func (ri *RangeIndex) Select(lo, hi int64) (rows *bitvec.Vector, exact bool, st iostat.Stats) {
	if lo < ri.lo {
		lo = ri.lo
	}
	if hi > ri.hi {
		hi = ri.hi
	}
	if lo >= hi {
		return bitvec.New(ri.ix.Len()), true, iostat.Stats{}
	}
	var sel []encoding.Interval
	exact = true
	for _, p := range ri.parts {
		if p.Hi <= lo || p.Lo >= hi {
			continue
		}
		sel = append(sel, p)
		if p.Lo < lo || p.Hi > hi {
			exact = false
		}
	}
	rows, st = ri.ix.In(sel)
	return rows, exact, st
}

// DescribeSelection renders the reduced retrieval expression for a query
// range, mirroring Figure 8(b).
func (ri *RangeIndex) DescribeSelection(lo, hi int64) string {
	var sel []encoding.Interval
	for _, p := range ri.parts {
		if p.Hi <= lo || p.Lo >= hi {
			continue
		}
		sel = append(sel, p)
	}
	return ri.ix.DescribeSelection(sel)
}
