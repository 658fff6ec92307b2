package query

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/table"
)

// withTelemetry enables telemetry for one test and restores the default.
func withTelemetry(t *testing.T) {
	t.Helper()
	obs.Enable()
	t.Cleanup(obs.Disable)
}

// TestSpanMatchesReturnedStats is the telemetry ground-truth check: the
// span recorded for a query through the Executor carries exactly the
// iostat.Stats the same evaluation returned, so the trace view and the
// caller-visible accounting cannot disagree.
func TestSpanMatchesReturnedStats(t *testing.T) {
	tab := fixture(t)
	col := make([]string, tab.Len())
	for i := range col {
		col[i] = tab.Column("region").Str(i)
	}
	ix, err := core.Build(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(tab)
	ex.Use("region", EBI[string]{Ix: ix})

	withTelemetry(t)
	p := Or{Preds: []Predicate{
		Eq{Col: "region", Val: table.StrCell("north")},
		In{Col: "region", Vals: []table.Cell{table.StrCell("south"), table.StrCell("east")}},
	}}
	rows, st, err := ex.Eval(p)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Count() != tab.Len() {
		t.Fatalf("matched %d of %d rows", rows.Count(), tab.Len())
	}
	if st.VectorsRead == 0 {
		t.Fatalf("expected an indexed evaluation, got %+v", st)
	}

	recent := obs.DefaultTracer().Recent(1)
	if len(recent) != 1 || recent[0].Name != "ebi.eval" {
		t.Fatalf("expected one ebi.eval span, got %+v", recent)
	}
	sp := recent[0]
	if sp.Stats != st {
		t.Fatalf("span stats %+v != returned stats %+v", sp.Stats, st)
	}
	if sp.Stats.VectorsRead != st.VectorsRead {
		t.Fatalf("span VectorsRead %d != returned %d", sp.Stats.VectorsRead, st.VectorsRead)
	}
	pred, _ := sp.Attrs["predicate"].(string)
	if !strings.Contains(pred, "region") {
		t.Fatalf("span predicate attr = %q", pred)
	}
	if sp.DurationNS < 0 {
		t.Fatal("span has negative duration")
	}
}

// TestPlannerSpanAndCounters checks the planner's span and that the
// shared cost counters advance by exactly the returned Stats.
func TestPlannerSpanAndCounters(t *testing.T) {
	pl, _, _ := plannerFixture(t, 500, 16)
	withTelemetry(t)

	vecBefore := counterValue(t, "ebi_vectors_read_total")
	opsBefore := counterValue(t, "ebi_bool_ops_total")

	_, st, choices, err := pl.Eval(Eq{Col: "v", Val: table.IntCell(3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 1 {
		t.Fatalf("choices = %+v", choices)
	}
	if choices[0].Actual == 0 {
		t.Fatalf("choice did not record an actual cost: %+v", choices[0])
	}

	if got := counterValue(t, "ebi_vectors_read_total") - vecBefore; got != uint64(st.VectorsRead) {
		t.Fatalf("ebi_vectors_read_total advanced by %d, stats say %d", got, st.VectorsRead)
	}
	if got := counterValue(t, "ebi_bool_ops_total") - opsBefore; got != uint64(st.BoolOps) {
		t.Fatalf("ebi_bool_ops_total advanced by %d, stats say %d", got, st.BoolOps)
	}

	recent := obs.DefaultTracer().Recent(1)
	if len(recent) != 1 || recent[0].Name != "ebi.plan.eval" {
		t.Fatalf("expected ebi.plan.eval span, got %+v", recent)
	}
	if recent[0].Stats != st {
		t.Fatalf("span stats %+v != returned %+v", recent[0].Stats, st)
	}
	if _, ok := recent[0].Attrs["choices"]; !ok {
		t.Fatal("planner span missing choices attr")
	}
}

// counterValue reads a counter from the default registry by name.
func counterValue(t *testing.T, name string) uint64 {
	t.Helper()
	return obs.Default().Counter(name, "").Value()
}

// TestPlannerMisestimateReported provokes a >2x estimate-vs-actual drift
// and checks it is logged through obs: the misestimate counter advances
// and the planner span names the drifting leaf.
func TestPlannerMisestimateReported(t *testing.T) {
	pl, _, _ := plannerFixture(t, 500, 16)
	// Re-register the simple path with a wildly optimistic model: it
	// claims every operation costs one vector read, so a δ=12 IN-list
	// (12 actual vector reads on the simple index) drifts >2x.
	var lying *AccessPath
	for i := range pl.paths["v"] {
		if pl.paths["v"][i].Name == "simple" {
			lying = &pl.paths["v"][i]
		}
	}
	if lying == nil {
		t.Fatal("fixture lost the simple path")
	}
	lying.Model = func(op Op, delta int) float64 { return 1 }

	withTelemetry(t)
	misBefore := counterValue(t, "ebi_planner_misestimates_total")

	vals := make([]table.Cell, 12)
	for i := range vals {
		vals[i] = table.IntCell(int64(i))
	}
	_, _, choices, err := pl.Eval(In{Col: "v", Vals: vals})
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 1 || choices[0].Path != "simple" {
		t.Fatalf("lying path not chosen: %+v", choices)
	}
	if !choices[0].Misestimated() {
		t.Fatalf("choice not flagged as misestimated: %+v", choices[0])
	}
	if got := counterValue(t, "ebi_planner_misestimates_total"); got != misBefore+1 {
		t.Fatalf("misestimate counter = %d, want %d", got, misBefore+1)
	}
	recent := obs.DefaultTracer().Recent(1)
	if len(recent) != 1 {
		t.Fatal("no planner span")
	}
	mis, _ := recent[0].Attrs["misestimates"].([]string)
	if len(mis) != 1 || !strings.Contains(mis[0], "simple") {
		t.Fatalf("span misestimates attr = %v", mis)
	}
}

// TestDisabledTelemetryNoSpans confirms the disabled default records
// nothing new.
func TestDisabledTelemetryNoSpans(t *testing.T) {
	obs.Disable()
	tab := fixture(t)
	ex := NewExecutor(tab)
	before := obs.DefaultTracer().Total()
	if _, _, err := ex.Eval(Eq{Col: "region", Val: table.StrCell("north")}); err != nil {
		t.Fatal(err)
	}
	if got := obs.DefaultTracer().Total(); got != before {
		t.Fatalf("disabled eval produced %d spans", got-before)
	}
}
