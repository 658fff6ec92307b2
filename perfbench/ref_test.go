package main

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/query"
	"repro/internal/table"
)

// naive evaluates a leaf row by row with bitvec.Set, the obvious form of
// the scan the word-at-a-time reference must agree with.
func naive(col []int64, match func(int64) bool) *bitvec.Vector {
	v := bitvec.New(len(col))
	for i, x := range col {
		if match(x) {
			v.Set(i)
		}
	}
	return v
}

func TestScanRefMatchesNaiveScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 63, 64, 65, 1000} {
		a := make([]int64, n)
		b := make([]int64, n)
		for i := range a {
			a[i], b[i] = int64(r.Intn(50)), int64(r.Intn(7))
		}
		for _, lists := range []bool{false, true} {
			ref := newScanRef(map[string][]int64{"a": a, "b": b})
			if lists {
				ref.withRowLists()
			}
			inA := func(x int64) bool { return x == 3 || x == 17 || x == 49 }
			cases := []struct {
				p    query.Predicate
				want *bitvec.Vector
			}{
				{query.Eq{Col: "a", Val: table.IntCell(17)}, naive(a, func(x int64) bool { return x == 17 })},
				{query.Range{Col: "a", Lo: 10, Hi: 30}, naive(a, func(x int64) bool { return x >= 10 && x <= 30 })},
				{query.In{Col: "a", Vals: intCells([]int64{3, 17, 49, 500})}, naive(a, inA)},
				{query.Not{Pred: query.In{Col: "a", Vals: intCells([]int64{3, 17, 49})}}, naive(a, func(x int64) bool { return !inA(x) })},
				{query.And{Preds: []query.Predicate{
					query.Range{Col: "a", Lo: 0, Hi: 24},
					query.Eq{Col: "b", Val: table.IntCell(2)},
				}}, bitvec.And(naive(a, func(x int64) bool { return x <= 24 }), naive(b, func(x int64) bool { return x == 2 }))},
				{query.Or{Preds: []query.Predicate{
					query.Eq{Col: "a", Val: table.IntCell(5)},
					query.Eq{Col: "b", Val: table.IntCell(6)},
				}}, bitvec.Or(naive(a, func(x int64) bool { return x == 5 }), naive(b, func(x int64) bool { return x == 6 }))},
			}
			for _, c := range cases {
				if err := ref.check(c.p, c.want, n); err != nil {
					t.Errorf("n=%d: %v", n, err)
				}
				wrong := c.want.Clone()
				if wrong.Get(0) {
					wrong.Clear(0)
				} else {
					wrong.Set(0)
				}
				if ref.check(c.p, wrong, n) == nil {
					t.Errorf("n=%d: %s: a result with row 0 flipped passed the check", n, c.p)
				}
			}
		}
	}
}

func TestScanRefChecksTheRowsHeldAtQueryTime(t *testing.T) {
	for _, lists := range []bool{false, true} {
		ref := newScanRef(map[string][]int64{"a": {1, 2, 1}})
		if lists {
			ref.withRowLists()
		}
		p := query.Eq{Col: "a", Val: table.IntCell(1)}
		in := query.In{Col: "a", Vals: intCells([]int64{1, 2})}
		early := bitvec.FromIndices(3, []int{0, 2})
		if err := ref.check(p, early, 3); err != nil {
			t.Errorf("lists=%v: result over the 3 rows: %v", lists, err)
		}
		ref.cols["a"] = append(ref.cols["a"], 1, 2) // appends after the query ran
		if err := ref.check(p, early, 3); err != nil {
			t.Errorf("lists=%v: result over the first 3 rows: %v", lists, err)
		}
		if err := ref.check(in, bitvec.FromIndices(5, []int{0, 1, 2, 3, 4}), 5); err != nil {
			t.Errorf("lists=%v: IN over the appended rows: %v", lists, err)
		}
		if err := ref.check(in, bitvec.FromIndices(3, []int{0, 1, 2}), 3); err != nil {
			t.Errorf("lists=%v: IN over the first 3 rows after a longer check: %v", lists, err)
		}
		if ref.check(p, early, 5) == nil {
			t.Errorf("lists=%v: a 3-row result passed a 5-row check", lists)
		}
		if ref.check(p, early, 6) == nil {
			t.Errorf("lists=%v: a check beyond the rows held passed", lists)
		}
	}
}
