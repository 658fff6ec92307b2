package query

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/simplebitmap"
	"repro/internal/table"
)

// fusedFixture builds a planner whose only "v" path is the fused encoded
// index adapter.
func fusedFixture(t *testing.T, n int) (*Planner, []int64) {
	t.Helper()
	tab := table.MustNew("t", table.NewColumn("v", table.Int64))
	col := make([]int64, n)
	for i := range col {
		col[i] = int64(i % 16)
		if err := tab.AppendRow(table.IntCell(col[i])); err != nil {
			t.Fatal(err)
		}
	}
	ebi, err := core.Build(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(NewExecutor(tab))
	if err := pl.AddPath("v", AccessPath{Name: "ebi", Index: EBIInt{Ix: ebi}, Model: EBIModel(ebi.K())}); err != nil {
		t.Fatal(err)
	}
	return pl, col
}

// TestFusedOpTruthTable pins which (adapter, op) pairs report fused.
func TestFusedOpTruthTable(t *testing.T) {
	cases := []struct {
		name       string
		ix         LeafIndex
		eq, in, rn bool
	}{
		{"EBI[int64] over Index", EBI[int64]{Ix: (*core.Index[int64])(nil)}, true, true, true},
		{"EBI[string] over Index", EBI[string]{Ix: (*core.Index[string])(nil)}, true, true, false},
		{"OrderedEBI", OrderedEBI{}, true, true, false},
		{"EBI[int64] over Synced", EBI[int64]{Ix: (*core.Synced[int64])(nil)}, true, true, true},
		{"EBI[string] over Synced", EBI[string]{Ix: (*core.Synced[string])(nil)}, true, true, false},
		{"PagedEBI[int64]", PagedEBI[int64]{}, true, true, true},
		{"PagedEBI[string]", PagedEBI[string]{}, true, true, false},
		{"CompressedSimple[int64]", CompressedSimple[int64]{}, false, true, true},
		{"CompressedSimple[string]", CompressedSimple[string]{}, false, true, false},
	}
	for _, c := range cases {
		if got := c.ix.FusedOp(OpEq); got != c.eq {
			t.Errorf("%s.FusedOp(eq) = %v, want %v", c.name, got, c.eq)
		}
		if got := c.ix.FusedOp(OpIn); got != c.in {
			t.Errorf("%s.FusedOp(in) = %v, want %v", c.name, got, c.in)
		}
		if got := c.ix.FusedOp(OpRange); got != c.rn {
			t.Errorf("%s.FusedOp(range) = %v, want %v", c.name, got, c.rn)
		}
	}
	// Adapters without the leaf contract are never fused.
	if fused, _ := leafFacts(Simple[int64]{Ix: &simplebitmap.Index[int64]{}}, OpIn, 1, 1); fused {
		t.Error("Simple reported fused")
	}
}

// TestFusedFlagSurfaced drives one IN-list through EXPLAIN, EXPLAIN
// ANALYZE, and Eval: the fused flag must agree across the prediction, the
// observation, the Choice, the text rendering, and the plan JSON.
func TestFusedFlagSurfaced(t *testing.T) {
	pl, _ := fusedFixture(t, 200)
	pred := In{Col: "v", Vals: []table.Cell{table.IntCell(1), table.IntCell(3), table.IntCell(7)}}

	plan, err := pl.Explain(pred)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Root.Fused {
		t.Fatal("EXPLAIN did not predict fused for the encoded index")
	}
	if !strings.Contains(plan.Text(), "via ebi est=5 fused") {
		t.Fatalf("EXPLAIN text lost the fused marker:\n%s", plan.Text())
	}

	rows, aplan, err := pl.ExplainAnalyze(pred)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Count() == 0 {
		t.Fatal("empty result")
	}
	if !aplan.Root.Fused {
		t.Fatal("EXPLAIN ANALYZE did not observe fused")
	}
	if !strings.Contains(aplan.Text(), " fused actual=") {
		t.Fatalf("analyzed text lost the fused marker:\n%s", aplan.Text())
	}
	raw, err := aplan.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"fused": true`) {
		t.Fatal("plan JSON lost the fused field")
	}
	var back Plan
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Root.Fused {
		t.Fatal("fused did not survive the JSON round trip")
	}

	_, _, choices, err := pl.Eval(pred)
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 1 || !choices[0].Fused {
		t.Fatalf("Eval choices = %+v, want one fused choice", choices)
	}
	if got := choices[0].String(); !strings.HasSuffix(got, " fused") {
		t.Fatalf("Choice rendering lost fused: %q", got)
	}
}

// TestSlowLogRecordsEngineFlags checks that a captured slow query carries
// the leaf-level engine summary: Fused set and Par equal to the highest
// leaf degree.
func TestSlowLogRecordsEngineFlags(t *testing.T) {
	pl, _ := fusedFixture(t, 200)
	// Lying model forces a >2x misestimate so the capture is deterministic.
	pl.paths["v"][0].Model = func(op Op, delta int) float64 { return 1000 }

	withTelemetry(t)
	before := obs.DefaultSlowLog().Total()
	pred := In{Col: "v", Vals: []table.Cell{table.IntCell(1), table.IntCell(3)}}
	if _, _, _, err := pl.Eval(pred); err != nil {
		t.Fatal(err)
	}
	if got := obs.DefaultSlowLog().Total(); got != before+1 {
		t.Fatalf("slow log total = %d, want %d", got, before+1)
	}
	entry := obs.DefaultSlowLog().Recent(1)[0]
	if !entry.Fused {
		t.Fatalf("slow-log entry not marked fused: %+v", entry)
	}
	if entry.Par != 0 {
		t.Fatalf("sequential leaf recorded par=%d", entry.Par)
	}
	raw, err := json.Marshal(entry)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"fused":true`) {
		t.Fatalf("slow-log JSON lost fused: %s", raw)
	}
}
