package query

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pagestore"
	"repro/internal/table"
)

// TestPlanLeafSpansNestUnderQueryRoot checks the hierarchical-trace
// tentpole at the query layer: one root span per evaluation, one
// "ebi.plan.leaf" child per leaf predicate, each carrying its routing
// decision, and the root's Stats equal to the returned totals.
func TestPlanLeafSpansNestUnderQueryRoot(t *testing.T) {
	pl, _, _ := plannerFixture(t, 500, 16)
	withTelemetry(t)

	p := And{Preds: []Predicate{
		Eq{Col: "v", Val: table.IntCell(3)},
		In{Col: "v", Vals: []table.Cell{table.IntCell(1), table.IntCell(2)}},
	}}
	_, st, choices, err := pl.Eval(p)
	if err != nil {
		t.Fatal(err)
	}

	recent := obs.DefaultTracer().Recent(1)
	if len(recent) != 1 || recent[0].Name != "ebi.plan.eval" {
		t.Fatalf("root span = %+v", recent)
	}
	root := recent[0]
	if root.Stats != st {
		t.Fatalf("root stats %+v != returned %+v", root.Stats, st)
	}
	var leaves []*obs.Span
	root.Walk(func(sp *obs.Span) {
		if sp.Name == "ebi.plan.leaf" {
			leaves = append(leaves, sp)
		}
	})
	if len(leaves) != len(choices) {
		t.Fatalf("%d leaf spans for %d choices", len(leaves), len(choices))
	}
	for i, leaf := range leaves {
		if leaf.ParentID != root.ID || leaf.TraceID != root.TraceID {
			t.Fatalf("leaf %d not nested under root: %+v", i, leaf)
		}
		if _, ok := leaf.Attrs["choice"]; !ok {
			t.Fatalf("leaf %d missing choice attr: %+v", i, leaf.Attrs)
		}
		if runtime.GOOS == "linux" && root.CPUNanos < leaf.CPUNanos {
			t.Fatalf("root CPU %d < leaf CPU %d — roll-up broken", root.CPUNanos, leaf.CPUNanos)
		}
		if root.AllocBytes < leaf.AllocBytes {
			t.Fatalf("root alloc %d < leaf alloc %d", root.AllocBytes, leaf.AllocBytes)
		}
	}
}

// TestExplainAnalyzeResourceAttribution checks the per-plan-node
// accounting: every analyzed node reports wall time and (on linux)
// CPU/alloc, and the root's numbers are the evaluation's totals.
func TestExplainAnalyzeResourceAttribution(t *testing.T) {
	// Large enough that result vectors exceed 32KiB: the runtime records
	// large allocations immediately, so the alloc attribution is visible
	// (small-object traffic only surfaces at mcache refills).
	pl, _, _ := plannerFixture(t, 300_000, 64)
	withTelemetry(t)

	p := Or{Preds: []Predicate{
		Eq{Col: "v", Val: table.IntCell(5)},
		Range{Col: "v", Lo: 10, Hi: 40},
	}}
	_, plan, err := pl.ExplainAnalyze(p)
	if err != nil {
		t.Fatal(err)
	}
	root := plan.Root
	if plan.Stats != root.Stats {
		t.Fatalf("plan stats %+v != root stats %+v", plan.Stats, root.Stats)
	}
	if plan.CPUNanos != root.CPUNanos || plan.AllocBytes != root.AllocBytes {
		t.Fatal("plan header resources diverge from the root node")
	}
	root.Walk(func(n *PlanNode) {
		if !n.Analyzed {
			t.Fatalf("node %s not analyzed", n.Pred)
		}
		// A parent's resource window covers its children, so the root
		// can never report less than any descendant.
		if root.CPUNanos < n.CPUNanos || root.AllocBytes < n.AllocBytes {
			t.Fatalf("root resources (%d ns, %d B) < node %s (%d ns, %d B)",
				root.CPUNanos, root.AllocBytes, n.Pred, n.CPUNanos, n.AllocBytes)
		}
	})
	if runtime.GOOS == "linux" && root.CPUNanos <= 0 {
		t.Fatalf("analyzed root has no CPU attribution: %d", root.CPUNanos)
	}
	if root.AllocBytes == 0 {
		t.Fatal("analyzed root has no allocation attribution")
	}
}

// TestExemplarResolvesToSpanTree checks the exemplar tentpole end to
// end: a query evaluation leaves an exemplar on its latency bucket, and
// the exemplar's trace ID resolves through /traces?id= machinery
// (Tracer.ByID) to the full span tree of that very query.
func TestExemplarResolvesToSpanTree(t *testing.T) {
	pl, _, _ := plannerFixture(t, 500, 16)
	withTelemetry(t)

	_, _, _, err := pl.Eval(Eq{Col: "v", Val: table.IntCell(7)})
	if err != nil {
		t.Fatal(err)
	}

	want := obs.DefaultTracer().Recent(1)[0].TraceID
	// The default registry is shared across tests, so pick the exemplar
	// stamped with this evaluation's trace, not just any bucket's.
	h := obs.Default().Histogram("ebi_query_eval_seconds", "", nil)
	var ex *obs.Exemplar
	for i := 0; i <= len(obs.LatencyBuckets); i++ {
		if e := h.Exemplar(i); e != nil && e.TraceID == want {
			ex = e
		}
	}
	if ex == nil {
		t.Fatal("evaluation left no exemplar on ebi_query_eval_seconds")
	}
	tree := obs.DefaultTracer().ByID(ex.TraceID)
	if tree == nil {
		t.Fatalf("exemplar trace %d not retained", ex.TraceID)
	}
	if tree.Name != "ebi.plan.eval" {
		t.Fatalf("exemplar resolved to %q, want the query root", tree.Name)
	}
	found := false
	tree.Walk(func(sp *obs.Span) { found = found || sp.ID == ex.SpanID })
	if !found {
		t.Fatalf("exemplar span %d not in the resolved tree", ex.SpanID)
	}
}

func TestFamilyKeyNormalization(t *testing.T) {
	a := In{Col: "v", Vals: []table.Cell{table.IntCell(2), table.IntCell(1)}}
	b := In{Col: "v", Vals: []table.Cell{table.IntCell(1), table.IntCell(2)}}
	if FamilyKey(a) != FamilyKey(b) {
		t.Fatalf("IN value order split families: %q vs %q", FamilyKey(a), FamilyKey(b))
	}
	and1 := And{Preds: []Predicate{Eq{Col: "a", Val: table.IntCell(1)}, Eq{Col: "b", Val: table.IntCell(2)}}}
	and2 := And{Preds: []Predicate{Eq{Col: "b", Val: table.IntCell(2)}, Eq{Col: "a", Val: table.IntCell(1)}}}
	if FamilyKey(and1) != FamilyKey(and2) {
		t.Fatalf("AND child order split families: %q vs %q", FamilyKey(and1), FamilyKey(and2))
	}
	or := Or{Preds: []Predicate{Eq{Col: "a", Val: table.IntCell(1)}, Eq{Col: "b", Val: table.IntCell(2)}}}
	if FamilyKey(and1) == FamilyKey(or) {
		t.Fatal("AND and OR share a family")
	}
	if FamilyKey(Not{Pred: or}) != "NOT "+FamilyKey(or) {
		t.Fatalf("NOT key = %q", FamilyKey(Not{Pred: or}))
	}
	if FamilyKey(nil) != "(unknown)" {
		t.Fatalf("nil key = %q", FamilyKey(nil))
	}
	// Distinct constants are distinct families (the parameter survives).
	if FamilyKey(Eq{Col: "v", Val: table.IntCell(1)}) == FamilyKey(Eq{Col: "v", Val: table.IntCell(2)}) {
		t.Fatal("distinct constants share a family")
	}
}

// TestRequestLogRecordsQueries checks /debug/requests wiring: repeated
// evaluations of the same predicate shape aggregate into one family
// with resource sums and a resolvable trace ID.
func TestRequestLogRecordsQueries(t *testing.T) {
	pl, _, _ := plannerFixture(t, 300_000, 16) // >32KiB vectors: alloc deltas visible
	withTelemetry(t)
	obs.DefaultRequests().Reset()
	t.Cleanup(obs.DefaultRequests().Reset)

	p := Eq{Col: "v", Val: table.IntCell(3)}
	for i := 0; i < 3; i++ {
		if _, _, _, err := pl.Eval(p); err != nil {
			t.Fatal(err)
		}
	}
	rep := obs.DefaultRequests().Snapshot()
	if len(rep.Families) != 1 {
		t.Fatalf("families = %+v", rep.Families)
	}
	f := rep.Families[0]
	if f.Family != FamilyKey(p) || f.Count != 3 {
		t.Fatalf("family = %+v", f)
	}
	if f.LastTraceID == 0 {
		t.Fatal("family has no trace ID")
	}
	if obs.DefaultTracer().ByID(f.LastTraceID) == nil {
		t.Fatal("family's last trace not retained")
	}
	if f.AllocBytes == 0 {
		t.Fatal("family has no allocation attribution")
	}
}

// pagedFixture builds a planner whose only path is a page-charged EBI.
func pagedFixture(t *testing.T, n int) (*Planner, *pagestore.PagedIndex[int64]) {
	t.Helper()
	tab := table.MustNew("t", table.NewColumn("v", table.Int64))
	col := make([]int64, n)
	for i := range col {
		col[i] = int64(i % 8)
		if err := tab.AppendRow(table.IntCell(col[i])); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := core.Build(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	paged := pagestore.NewPagedIndex(ix, 64, 64)
	pl := NewPlanner(NewExecutor(tab))
	if err := pl.AddPath("v", AccessPath{Name: "paged-ebi", Index: PagedEBI[int64]{Ix: paged}, Model: EBIModel(ix.K())}); err != nil {
		t.Fatal(err)
	}
	return pl, paged
}

// TestPagedLeafReportsPageTraffic checks the page-heatmap tentpole leg:
// EXPLAIN ANALYZE leaves over a paged index report buffer-cache hits
// and misses, and the page fetch shows up as a child span in the trace.
func TestPagedLeafReportsPageTraffic(t *testing.T) {
	pl, paged := pagedFixture(t, 4000)
	withTelemetry(t)

	p := Eq{Col: "v", Val: table.IntCell(3)}
	_, plan, err := pl.ExplainAnalyze(p)
	if err != nil {
		t.Fatal(err)
	}
	leaf := plan.Root
	if leaf.Kind != KindLeaf || leaf.Path != "paged-ebi" {
		t.Fatalf("leaf = %+v", leaf)
	}
	if leaf.PageMisses == 0 {
		t.Fatalf("cold run reported no page misses: %+v", leaf)
	}

	// Warm run: same pages, now hits.
	_, plan, err = pl.ExplainAnalyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Root.PageHits == 0 || plan.Root.PageMisses != 0 {
		t.Fatalf("warm run pages = %dh/%dm", plan.Root.PageHits, plan.Root.PageMisses)
	}

	// The fetch is traced under the leaf span.
	root := obs.DefaultTracer().Recent(1)[0]
	var fetch *obs.Span
	root.Walk(func(sp *obs.Span) {
		if sp.Name == "ebi.page.fetch" {
			fetch = sp
		}
	})
	if fetch == nil {
		t.Fatal("no ebi.page.fetch span in the query tree")
	}
	if hits, _ := fetch.Attrs["page_hits"].(int); hits != plan.Root.PageHits {
		t.Fatalf("fetch span hits %v != leaf %d", fetch.Attrs["page_hits"], plan.Root.PageHits)
	}

	// The heatmap saw the same traffic.
	if rep := paged.Heat().Report(); rep.TotalTouches == 0 {
		t.Fatal("heatmap empty after paged evaluations")
	}
}

// TestPagedConcurrentLeafPages runs EXPLAIN ANALYZE on a paged path
// while other goroutines query the same paged index. The shared buffer
// cache must be safe for concurrent use (run under -race), and every
// analyzed leaf must report the page traffic its own call charged — the
// fetch span's hits and misses, summing to every page of every vector it
// read — not what the other goroutines moved the shared cache counters
// by meanwhile.
func TestPagedConcurrentLeafPages(t *testing.T) {
	const n = 4000
	pl, paged := pagedFixture(t, n)
	perVector := pagestore.NewLayout(n, 64).PagesPerVector()
	withTelemetry(t)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ix := PagedEBI[int64]{Ix: paged}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := ix.In([]table.Cell{table.IntCell(int64((g + i) % 8))}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	for i := 0; i < 50; i++ {
		p := Predicate(Eq{Col: "v", Val: table.IntCell(int64(i % 8))})
		if i%2 == 1 {
			p = In{Col: "v", Vals: []table.Cell{table.IntCell(int64(i % 8)), table.IntCell(int64((i + 3) % 8))}}
		}
		_, plan, err := pl.ExplainAnalyze(p)
		if err != nil {
			t.Fatal(err)
		}
		leaf := plan.Root
		if got, want := leaf.PageHits+leaf.PageMisses, leaf.Stats.VectorsRead*perVector; got != want {
			t.Fatalf("run %d (%s): leaf pages %dh/%dm, want %d touches", i, p, leaf.PageHits, leaf.PageMisses, want)
		}
		var fetch *obs.Span
		obs.DefaultTracer().Recent(1)[0].Walk(func(sp *obs.Span) {
			if sp.Name == "ebi.page.fetch" {
				fetch = sp
			}
		})
		if fetch == nil {
			t.Fatalf("run %d: no ebi.page.fetch span", i)
		}
		hits, _ := fetch.Attrs["page_hits"].(int)
		misses, _ := fetch.Attrs["page_misses"].(int)
		if hits != leaf.PageHits || misses != leaf.PageMisses {
			t.Fatalf("run %d: leaf pages %dh/%dm, its fetch charged %dh/%dm", i, leaf.PageHits, leaf.PageMisses, hits, misses)
		}
	}
}

// TestParallelWorkerSpansNest checks that segmented parallel leaf
// execution records one span per worker under the leaf, and their CPU
// folds into the roll-up.
func TestParallelWorkerSpansNest(t *testing.T) {
	const n = 3 * 65536 // three execution segments
	tab := table.MustNew("t", table.NewColumn("v", table.Int64))
	col := make([]int64, n)
	for i := range col {
		col[i] = int64(i % 16)
		if err := tab.AppendRow(table.IntCell(col[i])); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := core.Build(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(NewExecutor(tab))
	if err := pl.AddPath("v", AccessPath{Name: "ebi", Index: EBIInt{Ix: ix}, Model: EBIModel(ix.K())}); err != nil {
		t.Fatal(err)
	}
	pl.EnableParallel(ParallelPolicy{MinWords: 1, MaxDegree: 3})
	withTelemetry(t)

	_, _, choices, err := pl.Eval(In{Col: "v", Vals: []table.Cell{table.IntCell(1), table.IntCell(5)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 1 || choices[0].Par <= 1 {
		t.Fatalf("leaf did not run parallel: %+v", choices)
	}

	root := obs.DefaultTracer().Recent(1)[0]
	var workers []*obs.Span
	var leaf *obs.Span
	root.Walk(func(sp *obs.Span) {
		switch sp.Name {
		case "ebi.parallel.worker":
			workers = append(workers, sp)
		case "ebi.plan.leaf":
			leaf = sp
		}
	})
	if leaf == nil {
		t.Fatal("no leaf span")
	}
	if len(workers) == 0 {
		t.Fatal("no parallel worker spans in the tree")
	}
	for _, w := range workers {
		if w.ParentID != leaf.ID {
			t.Fatalf("worker span parent %d, want leaf %d", w.ParentID, leaf.ID)
		}
		if w.TraceID != root.TraceID {
			t.Fatal("worker span in the wrong trace")
		}
	}
}
