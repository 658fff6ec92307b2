package main

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/query"
	"repro/internal/table"
)

// scanRef is the table-scan reference every result is checked against:
// the benchmark's own copy of each indexed column, evaluated row by row.
// Rows are only ever appended, so a result is checked against the first
// rows the copy held when its query ran, however many rows came later.
// It reuses one scratch vector per predicate depth, so checking allocates
// nothing in the steady state (beyond growing the row lists, when kept,
// by the appended rows) and does not feed the garbage collector
// the runs measure.
type scanRef struct {
	cols    map[string][]int64
	n       int // rows the check in progress covers
	scratch []*bitvec.Vector
	member  []uint8 // 1 for the values of the IN-list being checked

	// lists, when non-nil, holds each column's rows by value, so that an
	// Eq or In leaf is checked from the rows of its values instead of a
	// pass over the whole column (see rowLists).
	lists map[string]*rowLists
}

func newScanRef(cols map[string][]int64) *scanRef {
	return &scanRef{cols: cols}
}

// rowLists is one column's row numbers by value, ascending. It is built
// by scanning the column, and a check first scans the rows appended
// since the last one, so it always covers the column's current rows.
type rowLists struct {
	scanned int
	rows    map[int64][]int32
}

// withRowLists makes Eq and In checks read the row lists. A serve round
// checks thousands of point queries against a growing column, and a
// pass over the whole column per check would take most of the round.
func (r *scanRef) withRowLists() *scanRef {
	r.lists = make(map[string]*rowLists)
	for name := range r.cols {
		r.lists[name] = &rowLists{rows: make(map[int64][]int32)}
	}
	return r
}

// leafRows sets in dst the first r.n rows holding one of vals, from the
// column's row lists, after scanning the rows appended since the last
// check. It reports false when the column has no row lists.
func (r *scanRef) leafRows(dst *bitvec.Vector, name string, vals []table.Cell) bool {
	l := r.lists[name]
	if l == nil {
		return false
	}
	col := r.cols[name]
	for ; l.scanned < len(col); l.scanned++ {
		v := col[l.scanned]
		l.rows[v] = append(l.rows[v], int32(l.scanned))
	}
	words := dst.BlockWords(0, dst.Words())
	clear(words)
	for _, c := range vals {
		for _, row := range l.rows[c.I] {
			if int(row) >= r.n {
				break
			}
			words[row>>6] |= 1 << (uint(row) & 63)
		}
	}
	return true
}

// rows returns the reference's row count (all columns have the same).
func (r *scanRef) rows() int {
	for _, c := range r.cols {
		return len(c)
	}
	return 0
}

// check evaluates p by scanning the first n rows and reports whether got
// equals that reference row set.
func (r *scanRef) check(p query.Predicate, got *bitvec.Vector, n int) error {
	if n > r.rows() {
		return fmt.Errorf("reference: %d rows checked, %d held", n, r.rows())
	}
	r.n = n
	want, err := r.eval(p, 0)
	if err != nil {
		return err
	}
	if got == nil || !got.Equal(want) {
		return fmt.Errorf("result of %s differs from the table scan", p)
	}
	return nil
}

func (r *scanRef) buf(depth int) *bitvec.Vector {
	n := r.n
	for len(r.scratch) <= depth {
		r.scratch = append(r.scratch, nil)
	}
	if v := r.scratch[depth]; v != nil && v.Len() == n {
		return v
	}
	r.scratch[depth] = bitvec.New(n)
	return r.scratch[depth]
}

func (r *scanRef) eval(p query.Predicate, depth int) (*bitvec.Vector, error) {
	switch p := p.(type) {
	case query.Eq:
		col, err := r.col(p.Col)
		if err != nil {
			return nil, err
		}
		if dst := r.buf(depth); r.leafRows(dst, p.Col, []table.Cell{p.Val}) {
			return dst, nil
		}
		return scanRange(r.buf(depth), col, p.Val.I, p.Val.I), nil
	case query.Range:
		col, err := r.col(p.Col)
		if err != nil {
			return nil, err
		}
		return scanRange(r.buf(depth), col, p.Lo, p.Hi), nil
	case query.In:
		col, err := r.col(p.Col)
		if err != nil {
			return nil, err
		}
		if dst := r.buf(depth); r.leafRows(dst, p.Col, p.Vals) {
			return dst, nil
		}
		clear(r.member)
		for _, c := range p.Vals {
			if c.I < 0 {
				return nil, fmt.Errorf("reference: negative value in %s", p)
			}
			for int(c.I) >= len(r.member) {
				r.member = append(r.member, 0)
			}
			r.member[c.I] = 1
		}
		return scanMember(r.buf(depth), col, r.member), nil
	case query.And, query.Or:
		preds, and := andOr(p)
		acc, err := r.eval(preds[0], depth)
		if err != nil {
			return nil, err
		}
		for _, c := range preds[1:] {
			rows, err := r.eval(c, depth+1)
			if err != nil {
				return nil, err
			}
			if and {
				acc.And(rows)
			} else {
				acc.Or(rows)
			}
		}
		return acc, nil
	case query.Not:
		rows, err := r.eval(p.Pred, depth)
		if err != nil {
			return nil, err
		}
		return rows.Not(), nil
	}
	return nil, fmt.Errorf("reference: unsupported predicate %T", p)
}

// scanRange sets dst's bit i when lo <= col[i] <= hi. It builds each
// word without branching on the outcome, so a check costs about one pass
// over the column whatever the selectivity: (v-lo)|(hi-v) is negative
// exactly when v is outside [lo, hi], for the small values the workloads
// generate.
func scanRange(dst *bitvec.Vector, col []int64, lo, hi int64) *bitvec.Vector {
	return scanWords(dst, col, func(blk *[64]int64, n int) uint64 {
		var acc uint64
		for i := 0; i < n; i++ {
			v := blk[i]
			acc |= (uint64((v-lo)|(hi-v))>>63 ^ 1) << (uint(i) & 63)
		}
		return acc
	})
}

// scanMember sets dst's bit i when member[col[i]] is 1, like scanRange.
func scanMember(dst *bitvec.Vector, col []int64, member []uint8) *bitvec.Vector {
	return scanWords(dst, col, func(blk *[64]int64, n int) uint64 {
		var acc uint64
		for i := 0; i < n; i++ {
			if v := blk[i]; uint64(v) < uint64(len(member)) {
				acc |= uint64(member[v]) << (uint(i) & 63)
			}
		}
		return acc
	})
}

// scanWords fills dst word by word, each word from the up to 64 column
// values it covers.
func scanWords(dst *bitvec.Vector, col []int64, word func(blk *[64]int64, n int) uint64) *bitvec.Vector {
	words := dst.BlockWords(0, dst.Words())
	var tail [64]int64
	for w := range words {
		lo := w * 64
		if lo+64 <= len(col) {
			words[w] = word((*[64]int64)(col[lo:lo+64]), 64)
			continue
		}
		n := copy(tail[:], col[lo:])
		words[w] = word(&tail, n)
	}
	return dst
}

func (r *scanRef) col(name string) ([]int64, error) {
	c, ok := r.cols[name]
	if !ok {
		return nil, fmt.Errorf("reference: unknown column %s", name)
	}
	return c[:r.n], nil
}

// andOr returns the children of an And or Or and whether it is an And.
func andOr(p query.Predicate) ([]query.Predicate, bool) {
	if a, ok := p.(query.And); ok {
		return a.Preds, true
	}
	return p.(query.Or).Preds, false
}
