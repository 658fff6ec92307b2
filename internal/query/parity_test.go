package query_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/bsi"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/iostat"
	"repro/internal/obs"
	"repro/internal/pagestore"
	. "repro/internal/query"
	"repro/internal/simplebitmap"
	"repro/internal/table"
)

// parityShape is one planner configuration: access paths for one column
// ("v" int64 or "s" string), rebuilt per run so a paged path starts
// every run with a fresh buffer cache.
type parityShape struct {
	name  string
	col   string
	paths func() []AccessPath
}

// parityEntries are the four planner entry points (plus Eval with
// telemetry on, which builds the analyzed plan tree), each reduced to
// rows, stats and the routing decisions taken.
var parityEntries = []struct {
	name string
	run  func(pl *Planner, p Predicate) (*bitvec.Vector, iostat.Stats, []Choice, error)
}{
	{"Planner.Eval", func(pl *Planner, p Predicate) (*bitvec.Vector, iostat.Stats, []Choice, error) {
		return pl.Eval(p)
	}},
	{"Planner.Eval/telemetry", func(pl *Planner, p Predicate) (*bitvec.Vector, iostat.Stats, []Choice, error) {
		obs.Enable()
		defer obs.Disable()
		return pl.Eval(p)
	}},
	{"Planner.ExplainAnalyze", func(pl *Planner, p Predicate) (*bitvec.Vector, iostat.Stats, []Choice, error) {
		rows, plan, err := pl.ExplainAnalyze(p)
		if err != nil {
			return nil, iostat.Stats{}, nil, err
		}
		return rows, plan.Stats, planChoices(plan), nil
	}},
	{"PreparedQuery.Eval", func(pl *Planner, p Predicate) (*bitvec.Vector, iostat.Stats, []Choice, error) {
		pq, err := pl.Prepare(p)
		if err != nil {
			return nil, iostat.Stats{}, nil, err
		}
		return pq.Eval()
	}},
	{"Planner.EvalForAudit", func(pl *Planner, p Predicate) (*bitvec.Vector, iostat.Stats, []Choice, error) {
		return pl.EvalForAudit(p)
	}},
}

// planChoices reads an analyzed plan's leaves back as routing decisions,
// in the preorder Eval records them.
func planChoices(plan *Plan) []Choice {
	ops := map[string]Op{OpEq.String(): OpEq, OpIn.String(): OpIn, OpRange.String(): OpRange}
	var out []Choice
	plan.Root.Walk(func(n *PlanNode) {
		if n.Kind != KindLeaf {
			return
		}
		out = append(out, Choice{
			Column: n.Column, Op: ops[n.Op], Delta: n.Delta, Path: n.Path,
			Cost: float64(n.EstReads), Actual: float64(n.ActReads),
			Par: n.Parallel, Fused: n.Fused, Excess: n.ExcessVectors,
			PageHits: n.PageHits, PageMisses: n.PageMisses,
		})
	})
	return out
}

// parityPred builds a random predicate tree over the int column v and
// the string column s, NULL selections included.
func parityPred(r *rand.Rand, card, depth int) Predicate {
	if depth <= 0 || r.Intn(3) == 0 {
		if r.Intn(8) == 0 {
			return Eq{Col: []string{"v", "s"}[r.Intn(2)], Val: table.NullCell()}
		}
		if r.Intn(2) == 0 {
			return randOraclePred(r, card, 0)
		}
		vals := make([]table.Cell, 1+r.Intn(4))
		for i := range vals {
			vals[i] = table.StrCell(fmt.Sprintf("s%02d", r.Intn(card+2)))
		}
		if len(vals) == 1 {
			return Eq{Col: "s", Val: vals[0]}
		}
		return In{Col: "s", Vals: vals}
	}
	switch r.Intn(3) {
	case 0:
		return And{Preds: []Predicate{parityPred(r, card, depth-1), parityPred(r, card, depth-1)}}
	case 1:
		return Or{Preds: []Predicate{parityPred(r, card, depth-1), parityPred(r, card, depth-1)}}
	default:
		return Not{Pred: parityPred(r, card, depth-1)}
	}
}

// TestChoiceParity requires Planner.Eval (with telemetry off and on),
// ExplainAnalyze, PreparedQuery.Eval and Planner.EvalForAudit to return
// the same rows, stats and Choice list — every field, so the same
// String(), Fused, Excess, Par and per-call page counts — for every
// adapter shape the shape and cross-index oracles register, sequentially
// and with the parallel gate forced on.
func TestChoiceParity(t *testing.T) {
	n := bitvec.SegmentBits + 500 // two segments: the parallel gate engages
	if testing.Short() {
		n = 3000
	}
	const card = 24
	r := rand.New(rand.NewSource(41))
	ints := make([]int64, n)
	strs := make([]string, n)
	nulls := make([]bool, n)
	tab := table.MustNew("t", table.NewColumn("v", table.Int64), table.NewColumn("s", table.String))
	for i := range ints {
		ints[i], strs[i] = int64(r.Intn(card)), fmt.Sprintf("s%02d", r.Intn(card))
		nulls[i] = r.Intn(20) == 0
		iv, sv := table.IntCell(ints[i]), table.StrCell(strs[i])
		if nulls[i] {
			iv, sv = table.NullCell(), table.NullCell()
		}
		if err := tab.AppendRow(iv, sv); err != nil {
			t.Fatal(err)
		}
	}
	intIx, err := core.Build(ints, nulls, nil)
	if err != nil {
		t.Fatal(err)
	}
	strIx, err := core.Build(strs, nulls, nil)
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := core.BuildOrdered(ints, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	intSimple, err := simplebitmap.Build(ints, nulls)
	if err != nil {
		t.Fatal(err)
	}
	strSimple, err := simplebitmap.Build(strs, nulls)
	if err != nil {
		t.Fatal(err)
	}
	intWAH, err := simplebitmap.BuildCompressed(ints, nulls)
	if err != nil {
		t.Fatal(err)
	}
	strWAH, err := simplebitmap.BuildCompressed(strs, nulls)
	if err != nil {
		t.Fatal(err)
	}
	u64 := make([]uint64, n)
	for i, v := range ints {
		u64[i] = uint64(v)
	}
	k, sk := intIx.K(), strIx.K()
	one := func(name string, ix func() ColumnIndex, model CostModel) func() []AccessPath {
		return func() []AccessPath { return []AccessPath{{Name: name, Index: ix(), Model: model}} }
	}
	fixed := func(ix ColumnIndex) func() ColumnIndex { return func() ColumnIndex { return ix } }
	shapes := []parityShape{
		{"EBI[int64]/Index", "v", one("ebi", fixed(EBI[int64]{Ix: intIx}), EBIModel(k))},
		{"EBI[int64]/Synced+tail", "v", one("ebi", fixed(EBI[int64]{Ix: shapeSynced(t, ints, nulls)}), EBIModel(k))},
		{"PagedEBI[int64]", "v", one("paged", func() ColumnIndex {
			return PagedEBI[int64]{Ix: pagestore.NewPagedIndex(intIx, 8, 512)}
		}, EBIModel(k))},
		{"OrderedEBI", "v", one("ordered", fixed(OrderedEBI{Ix: ordered}), EBIModel(ordered.K()))},
		{"ebi-baseline", "v", one("ebi-baseline", fixed(baselineEBI{Ix: intIx}), EBIModel(k))},
		{"Simple[int64]", "v", one("simple", fixed(Simple[int64]{Ix: intSimple}), SimpleBitmapModel())},
		{"CompressedSimple[int64]", "v", one("wah", fixed(CompressedSimple[int64]{Ix: intWAH}), SimpleBitmapModel())},
		{"BSIAdapter", "v", one("bsi", fixed(BSIAdapter{Ix: bsi.Build(u64)}), BSIModel(8))},
		{"BTreeAdapter", "v", one("btree", fixed(BTreeAdapter{Ix: btree.Build(u64, 8), NRows: n}), BTreeModel(3, n/8))},
		{"simple+ebi", "v", func() []AccessPath {
			return []AccessPath{
				{Name: "simple", Index: Simple[int64]{Ix: intSimple}, Model: SimpleBitmapModel()},
				{Name: "ebi", Index: EBI[int64]{Ix: intIx}, Model: EBIModel(k)},
			}
		}},
		{"EBI[string]/Index", "s", one("ebi", fixed(EBI[string]{Ix: strIx}), EBIModel(sk))},
		{"EBI[string]/Synced+tail", "s", one("ebi", fixed(EBI[string]{Ix: shapeSynced(t, strs, nulls)}), EBIModel(sk))},
		{"PagedEBI[string]", "s", one("paged", func() ColumnIndex {
			return PagedEBI[string]{Ix: pagestore.NewPagedIndex(strIx, 8, 512)}
		}, EBIModel(sk))},
		{"Simple[string]", "s", one("simple", fixed(Simple[string]{Ix: strSimple}), SimpleBitmapModel())},
		{"CompressedSimple[string]", "s", one("wah", fixed(CompressedSimple[string]{Ix: strWAH}), SimpleBitmapModel())},
	}
	preds := []Predicate{
		Range{Col: "v", Lo: 2, Hi: 9},
		In{Col: "v", Vals: []table.Cell{table.IntCell(1), table.IntCell(3), table.IntCell(5), table.IntCell(7)}},
	}
	for i := 0; i < 25; i++ {
		preds = append(preds, parityPred(r, card, 2))
	}

	var sawFused, sawPar, sawPages, sawExcess, sawFallback bool
	for _, parallel := range []bool{false, true} {
		for _, sh := range shapes {
			newPlanner := func() *Planner {
				pl := NewPlanner(NewExecutor(tab))
				for _, p := range sh.paths() {
					if err := pl.AddPath(sh.col, p); err != nil {
						t.Fatal(err)
					}
				}
				if parallel {
					pl.EnableParallel(ParallelPolicy{MinWords: 1, MaxDegree: 4})
				}
				return pl
			}
			for pi, p := range preds {
				ctx := fmt.Sprintf("%s parallel=%v pred %d (%s)", sh.name, parallel, pi, p)
				wantRows, wantSt, want, err := parityEntries[0].run(newPlanner(), p)
				if err != nil {
					t.Fatalf("%s: %s: %v", ctx, parityEntries[0].name, err)
				}
				for _, e := range parityEntries[1:] {
					rows, st, got, err := e.run(newPlanner(), p)
					if err != nil {
						t.Fatalf("%s: %s: %v", ctx, e.name, err)
					}
					if !rows.Equal(wantRows) || st != wantSt {
						t.Fatalf("%s: %s returned %d rows %+v, %s %d rows %+v",
							ctx, e.name, rows.Count(), st, parityEntries[0].name, wantRows.Count(), wantSt)
					}
					if len(got) != len(want) {
						t.Fatalf("%s: %s recorded %d choices, %s %d", ctx, e.name, len(got), parityEntries[0].name, len(want))
					}
					for i := range got {
						if got[i] != want[i] || got[i].String() != want[i].String() {
							t.Fatalf("%s: choice %d\n%s: %+v\n%s: %+v", ctx, i, e.name, got[i], parityEntries[0].name, want[i])
						}
					}
				}
				for _, c := range want {
					sawFused = sawFused || c.Fused
					sawPar = sawPar || c.Par > 1
					sawPages = sawPages || c.PageHits+c.PageMisses > 0
					sawExcess = sawExcess || c.Excess > 0
					sawFallback = sawFallback || c.Path == "fallback"
				}
			}
		}
	}
	if !sawFused || !sawPages || !sawFallback || !sawExcess {
		t.Fatalf("parity never covered fused=%v pages=%v fallback=%v excess=%v", sawFused, sawPages, sawFallback, sawExcess)
	}
	if !testing.Short() && !sawPar {
		t.Fatal("parity never covered a parallel leaf")
	}
}
