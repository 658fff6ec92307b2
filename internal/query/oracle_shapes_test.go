package query_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/iostat"
	"repro/internal/pagestore"
	. "repro/internal/query"
	"repro/internal/table"
)

// ebiShape is one encoded-bitmap adapter shape under test.
type ebiShape struct {
	name string
	ix   ColumnIndex
}

// shapeColumn builds n rows over card values with NULLs. The first
// card+1 rows hold every value in order and one NULL, so any prefix of at
// least that length has the full column's domain in the same
// first-appearance order — and therefore the same encoding.
func shapeColumn[V comparable](r *rand.Rand, n, card int, val func(int) V) ([]V, []bool) {
	col := make([]V, n)
	nulls := make([]bool, n)
	for i := range col {
		switch {
		case i < card:
			col[i] = val(i)
		case i == card || r.Intn(20) == 0:
			nulls[i] = true
		default:
			col[i] = val(r.Intn(card))
		}
	}
	return col, nulls
}

// shapeTable loads the column into a one-column table for the scan
// reference.
func shapeTable[V comparable](t *testing.T, kind table.Kind, col []V, nulls []bool, cell func(V) table.Cell) *table.Table {
	t.Helper()
	tab := table.MustNew("t", table.NewColumn("v", kind))
	for i, v := range col {
		c := cell(v)
		if nulls[i] {
			c = table.NullCell()
		}
		if err := tab.AppendRow(c); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// shapeSynced builds a Synced index over the first half of the column and
// appends the rest, leaving the appends as an outstanding tail.
func shapeSynced[V comparable](t *testing.T, col []V, nulls []bool) *core.Synced[V] {
	t.Helper()
	half := len(col) / 2
	s, err := core.BuildSynced(col[:half], nulls[:half], nil)
	if err != nil {
		t.Fatal(err)
	}
	s.SetFoldThreshold(len(col))
	for i := half; i < len(col); i++ {
		if nulls[i] {
			err = s.AppendNull()
		} else {
			err = s.Append(col[i])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestOracleEBIShapes runs every encoded-bitmap adapter shape — the
// generic adapter over Index and over Synced with an outstanding append
// tail, the ordered adapter, and the paged adapter — for both value types
// through Eq, Eq(NULL), In and Range leaves, sequentially and through
// the parallel leaf at degree 4. Rows must equal the table scan bit for
// bit, stats must equal the plain-Index adapter on the same data, and
// every shape's PredictLeaf must equal its measured stats.
func TestOracleEBIShapes(t *testing.T) {
	n := bitvec.SegmentBits + 500
	if testing.Short() {
		n = 3000
	}
	const card = 40
	r := rand.New(rand.NewSource(17))

	ints, intNulls := shapeColumn(r, n, card, func(i int) int64 { return int64(i) })
	intTab := shapeTable(t, table.Int64, ints, intNulls, table.IntCell)
	intIx, err := core.Build(ints, intNulls, nil)
	if err != nil {
		t.Fatal(err)
	}
	intShapes := []ebiShape{
		{"EBI[int64]/Index", EBI[int64]{Ix: intIx}},
		{"EBI[int64]/Synced+tail", EBI[int64]{Ix: shapeSynced(t, ints, intNulls)}},
		{"PagedEBI[int64]", PagedEBI[int64]{Ix: pagestore.NewPagedIndex(intIx, 8, 512)}},
	}

	strOf := func(i int) string { return fmt.Sprintf("s%02d", i) }
	strs, strNulls := shapeColumn(r, n, card, strOf)
	strTab := shapeTable(t, table.String, strs, strNulls, table.StrCell)
	strIx, err := core.Build(strs, strNulls, nil)
	if err != nil {
		t.Fatal(err)
	}
	strShapes := []ebiShape{
		{"EBI[string]/Index", EBI[string]{Ix: strIx}},
		{"EBI[string]/Synced+tail", EBI[string]{Ix: shapeSynced(t, strs, strNulls)}},
		{"PagedEBI[string]", PagedEBI[string]{Ix: pagestore.NewPagedIndex(strIx, 8, 512)}},
	}

	var intLeaves, strLeaves []Predicate
	for i := 0; i < 30; i++ {
		v := r.Intn(card + 2) // past the domain: unknown values too
		in := make([]table.Cell, 1+r.Intn(6))
		sin := make([]table.Cell, len(in))
		for j := range in {
			w := r.Intn(card + 2)
			in[j], sin[j] = table.IntCell(int64(w)), table.StrCell(strOf(w))
		}
		lo := int64(r.Intn(card + 2))
		intLeaves = append(intLeaves,
			Eq{Col: "v", Val: table.IntCell(int64(v))},
			In{Col: "v", Vals: append(in, table.NullCell())},
			Range{Col: "v", Lo: lo, Hi: lo + int64(r.Intn(12))})
		strLeaves = append(strLeaves,
			Eq{Col: "v", Val: table.StrCell(strOf(v))},
			In{Col: "v", Vals: append(sin, table.NullCell())})
	}
	null := Eq{Col: "v", Val: table.NullCell()}
	intLeaves = append(intLeaves, null)
	strLeaves = append(strLeaves, null)

	checkShapes(t, NewExecutor(intTab), intShapes, intLeaves)
	checkShapes(t, NewExecutor(strTab), strShapes, strLeaves)

	// The ordered adapter (which has no NULLs) shares Eq/In with the
	// generic one; its Range is the comparison pass, checked against the
	// scan only.
	noNulls := make([]bool, n)
	ordTab := shapeTable(t, table.Int64, ints, noNulls, table.IntCell)
	ordered, err := core.BuildOrdered(ints, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkShapes(t, NewExecutor(ordTab), []ebiShape{
		{"EBI[int64]/Index", EBI[int64]{Ix: ordered.Index()}},
		{"OrderedEBI", OrderedEBI{Ix: ordered}},
	}, intLeaves[:len(intLeaves)-1])

	// Range has no meaning on strings: every string shape refuses it the
	// same way, sequentially and in parallel.
	for _, sh := range strShapes {
		if _, _, err := sh.ix.Range(0, 5); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s: Range error %v, want ErrUnsupported", sh.name, err)
		}
		if li, ok := sh.ix.(LeafIndex); ok {
			if _, err := li.EvalLeaf(context.Background(), Range{Col: "v", Lo: 0, Hi: 5}, 4); !errors.Is(err, ErrUnsupported) {
				t.Errorf("%s: parallel Range error %v, want ErrUnsupported", sh.name, err)
			}
		}
	}
}

// checkShapes evaluates every leaf on every shape. shapes[0] is the
// plain-Index reference whose stats the others must equal, except the
// ordered adapter's Range, which runs a different algorithm.
func checkShapes(t *testing.T, scan *Executor, shapes []ebiShape, leaves []Predicate) {
	t.Helper()
	for li, leaf := range leaves {
		want, _, err := scan.Eval(leaf)
		if err != nil {
			t.Fatalf("leaf %d (%s): scan: %v", li, leaf, err)
		}
		var ref iostat.Stats
		for si, sh := range shapes {
			ctx := fmt.Sprintf("leaf %d (%s) on %s", li, leaf, sh.name)
			rows, st, err := evalLeaf(sh.ix, leaf)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			if !rows.Equal(want) {
				t.Fatalf("%s: %d rows, scan %d — row sets differ", ctx, rows.Count(), want.Count())
			}
			_, isRange := leaf.(Range)
			_, isOrdered := sh.ix.(OrderedEBI)
			switch {
			case si == 0:
				ref = st
			case !(isRange && isOrdered) && st != ref:
				t.Fatalf("%s: stats %+v, plain Index %+v", ctx, st, ref)
			}
			li, ok := sh.ix.(LeafIndex)
			if !ok {
				continue
			}
			if pred, _, ok := li.PredictLeaf(leaf); ok && pred != st {
				t.Fatalf("%s: predicted %+v, measured %+v", ctx, pred, st)
			} else if !ok && !(isRange && isOrdered) {
				t.Fatalf("%s: no prediction", ctx)
			}
			pres, err := li.EvalLeaf(context.Background(), leaf, 4)
			prows, pst := pres.Rows, pres.Stats
			if isRange && isOrdered {
				if !errors.Is(err, ErrUnsupported) {
					t.Fatalf("%s: parallel comparison Range error %v, want ErrUnsupported", ctx, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: parallel: %v", ctx, err)
			}
			if !prows.Equal(want) || pst != st {
				t.Fatalf("%s: parallel (%d rows, %+v), sequential (%d rows, %+v)",
					ctx, prows.Count(), pst, want.Count(), st)
			}
		}
	}
}

// evalLeaf routes a leaf predicate to the ColumnIndex method for it.
func evalLeaf(ix ColumnIndex, p Predicate) (*bitvec.Vector, iostat.Stats, error) {
	switch p := p.(type) {
	case Eq:
		return ix.Eq(p.Val)
	case In:
		return ix.In(p.Vals)
	case Range:
		return ix.Range(p.Lo, p.Hi)
	}
	return nil, iostat.Stats{}, fmt.Errorf("%T is not a leaf", p)
}
