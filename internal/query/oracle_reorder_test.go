package query_test

import (
	"math/rand"
	"testing"

	"repro/internal/bsi"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/iostat"
	. "repro/internal/query"
	"repro/internal/reorder"
	"repro/internal/simplebitmap"
	"repro/internal/table"
	"repro/internal/workload"
)

// The reordered-table differential oracle: every workload runs against
// both row orderings — the unsorted build and a row-reordered build
// (lex/Gray/histogram-aware permutations from internal/reorder) — and
// must select the same logical rows, with the reordered result mapped
// back to original row ids through the permutation. Any mismatch means a
// builder applied the permutation inconsistently (index rows no longer
// aligned with table rows) or the mapping is not the bijection it
// claims to be.

// reorderedPlanners builds one planner per index family over the
// permuted column, each backed by the reordered table for scan
// fallbacks.
func reorderedPlanners(t *testing.T, col []int64, perm []int, reorderedTab *table.Table) map[string]*Planner {
	t.Helper()
	sortedCol := reorder.Permute(col, perm)
	u64 := make([]uint64, len(sortedCol))
	for i, v := range sortedCol {
		u64[i] = uint64(v)
	}
	ebi, err := core.Build(col, nil, &core.Options[int64]{Reorder: perm})
	if err != nil {
		t.Fatal(err)
	}
	simple, err := simplebitmap.BuildReordered(col, nil, perm)
	if err != nil {
		t.Fatal(err)
	}
	wah, err := simplebitmap.BuildCompressedReordered(col, nil, perm)
	if err != nil {
		t.Fatal(err)
	}
	paths := map[string]AccessPath{
		"ebi":    {Name: "ebi", Index: EBIInt{Ix: ebi}, Model: EBIModel(ebi.K())},
		"simple": {Name: "simple", Index: Simple[int64]{Ix: simple}, Model: SimpleBitmapModel()},
		"wah":    {Name: "wah", Index: CompressedSimple[int64]{Ix: wah}, Model: SimpleBitmapModel()},
		"bsi":    {Name: "bsi", Index: BSIAdapter{Ix: bsi.Build(u64)}, Model: BSIModel(8)},
		"btree": {Name: "btree", Index: BTreeAdapter{Ix: btree.Build(u64, 8), NRows: len(col)},
			Model: BTreeModel(3, len(col)/8)},
	}
	planners := make(map[string]*Planner, len(paths))
	for name, p := range paths {
		pl := NewPlanner(NewExecutor(reorderedTab))
		if err := pl.AddPath("v", p); err != nil {
			t.Fatal(err)
		}
		planners[name] = pl
	}
	return planners
}

// TestOracleReorderedTableDifferential is the reordered-table mode: for
// each data shape and each reorder heuristic, the full workload mix runs
// against the unsorted scan and every reordered index family; reordered
// results map back through the permutation and must equal the scan's
// row set exactly. Per-ordering stats are recorded so the orderings'
// read volumes can be compared from the verbose log.
func TestOracleReorderedTableDifferential(t *testing.T) {
	const n, predsPerSpec = 2500, 30
	configs := []struct {
		name string
		card int
		gen  func(r *rand.Rand) []int64
	}{
		{"uniform/m=8", 8, func(r *rand.Rand) []int64 { return workload.Uniform(r, n, 8) }},
		{"zipf/m=50", 50, func(r *rand.Rand) []int64 { return workload.Zipf(r, n, 50, 1.2) }},
		{"clustered/m=20", 20, func(r *rand.Rand) []int64 { return workload.Clustered(r, n, 20, 4) }},
	}
	specs := []reorder.Spec{reorder.LexAsc, reorder.GrayAsc, reorder.GrayHist}
	for ci, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(900 + ci)))
			col := cfg.gen(r)
			group := workload.Uniform(r, n, 5) // companion column shaping the sort
			tab := table.MustNew("t",
				table.NewColumn("v", table.Int64),
				table.NewColumn("g", table.Int64),
			)
			for i := range col {
				if err := tab.AppendRow(table.IntCell(col[i]), table.IntCell(group[i])); err != nil {
					t.Fatal(err)
				}
			}
			scan := NewExecutor(tab)
			for _, spec := range specs {
				spec := spec
				t.Run(spec.String(), func(t *testing.T) {
					plan, err := reorder.PlanTable(tab, spec)
					if err != nil {
						t.Fatal(err)
					}
					reorderedTab, err := reorder.ApplyTable(tab, plan.Perm)
					if err != nil {
						t.Fatal(err)
					}
					planners := reorderedPlanners(t, col, plan.Perm, reorderedTab)
					totals := make(map[string]iostat.Stats, len(planners))
					for w := 0; w < predsPerSpec; w++ {
						pred := randOraclePred(r, cfg.card, 2)
						want, _, err := scan.Eval(pred)
						if err != nil {
							t.Fatalf("workload %d: scan: %v", w, err)
						}
						for name, pl := range planners {
							got, st, choices, err := pl.Eval(pred)
							if err != nil {
								t.Fatalf("workload %d (%s): %s: %v", w, pred, name, err)
							}
							mapped := reorder.MapToOriginal(got, plan.Perm)
							if !mapped.Equal(want) {
								t.Fatalf("workload %d (%s): %s reordered result maps to %d rows, scan %d — logical rows differ\nchoices: %v",
									w, pred, name, mapped.Count(), want.Count(), choices)
							}
							tot := totals[name]
							tot.Add(st)
							totals[name] = tot
						}
					}
					for name, tot := range totals {
						t.Logf("%s/%s/%s: %d workloads, stats %+v",
							cfg.name, spec, name, predsPerSpec, tot)
					}
				})
			}
		})
	}
}

// TestOracleReorderedScanAgreesWithMapping: the reordered table itself
// (not just the indexes) must be consistent with the permutation — a
// scan over it, mapped back, equals the unsorted scan.
func TestOracleReorderedScanAgreesWithMapping(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	col := workload.Zipf(r, 1500, 30, 1.3)
	tab := table.MustNew("t", table.NewColumn("v", table.Int64))
	for _, v := range col {
		if err := tab.AppendRow(table.IntCell(v)); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := reorder.PlanTable(tab, reorder.GrayAsc)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := reorder.ApplyTable(tab, plan.Perm)
	if err != nil {
		t.Fatal(err)
	}
	scan, sortedScan := NewExecutor(tab), NewExecutor(sorted)
	for w := 0; w < 40; w++ {
		pred := randOraclePred(r, 30, 2)
		want, _, err := scan.Eval(pred)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := sortedScan.Eval(pred)
		if err != nil {
			t.Fatal(err)
		}
		if !reorder.MapToOriginal(got, plan.Perm).Equal(want) {
			t.Fatalf("workload %d (%s): reordered scan does not map back to unsorted scan", w, pred)
		}
	}
}
