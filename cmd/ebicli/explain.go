package main

import (
	"flag"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/simplebitmap"
	"repro/internal/table"
	"repro/internal/workload"
)

// runExplain builds the synthetic star schema, registers competing
// access paths (simple bitmap vs encoded bitmap, the paper's Figure 9
// rivals), and prints the EXPLAIN / EXPLAIN ANALYZE tree for a sample
// star-schema query: a seasonal DATE range ANDed with a product
// disjunction and a salespoint IN-list.
func runExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	n := fs.Int("n", 20000, "synthetic fact rows")
	seed := fs.Int64("seed", 1, "random seed")
	analyze := fs.Bool("analyze", true, "execute the query and attach per-node actuals (EXPLAIN ANALYZE)")
	asJSON := fs.Bool("json", false, "print the plan as JSON instead of the text tree")
	if err := fs.Parse(args); err != nil {
		return err
	}

	r := rand.New(rand.NewSource(*seed))
	star, err := workload.BuildStar(r, workload.StarConfig{
		Facts: *n, Products: 200, SalesPoints: 12, Days: 730, MaxQty: 50,
	})
	if err != nil {
		return err
	}

	ex := query.NewExecutor(star.Schema.Fact)
	pl := query.NewPlanner(ex)
	addPaths := func(col string, vals []int64) error {
		simple, err := simplebitmap.Build(vals, nil)
		if err != nil {
			return err
		}
		if err := pl.AddPath(col, query.AccessPath{
			Name: "simple", Index: query.Simple[int64]{Ix: simple}, Model: query.SimpleBitmapModel(),
		}); err != nil {
			return err
		}
		ordered, err := core.BuildOrdered(vals, nil, nil)
		if err != nil {
			return err
		}
		return pl.AddPath(col, query.AccessPath{
			Name: "ebi", Index: query.OrderedEBI{Ix: ordered}, Model: query.EBIModel(ordered.K()),
		})
	}
	for col, vals := range map[string][]int64{
		"day": star.Day, "product": star.Product, "salespoint": star.SalesPoint,
	} {
		if err := addPaths(col, vals); err != nil {
			return err
		}
	}

	// Q: summer sales of two products at three branches.
	pred := query.And{Preds: []query.Predicate{
		query.Range{Col: "day", Lo: 150, Hi: 239},
		query.Or{Preds: []query.Predicate{
			query.Eq{Col: "product", Val: table.IntCell(7)},
			query.Eq{Col: "product", Val: table.IntCell(11)},
		}},
		query.In{Col: "salespoint", Vals: []table.Cell{
			table.IntCell(0), table.IntCell(4), table.IntCell(8),
		}},
	}}

	// Telemetry on, so misestimated or slow plans land in the slow-query
	// log the serve modes expose at /debug/slowlog.
	obs.Enable()
	obs.DefaultSlowLog().SetLatencyThreshold(50 * time.Millisecond)

	if !*analyze {
		plan, err := pl.Explain(pred)
		if err != nil {
			return err
		}
		return printPlan(plan, *asJSON)
	}
	rows, plan, err := pl.ExplainAnalyze(pred)
	if err != nil {
		return err
	}
	if err := printPlan(plan, *asJSON); err != nil {
		return err
	}
	fmt.Printf("\n%d of %d rows qualify", rows.Count(), star.Schema.Fact.Len())
	if plan.Misestimated() {
		fmt.Printf("; plan captured in the slow-query log (misestimate) — see /debug/slowlog under serve")
	}
	fmt.Println()
	return nil
}

func printPlan(plan *query.Plan, asJSON bool) error {
	if asJSON {
		raw, err := plan.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(raw))
		return nil
	}
	fmt.Print(plan.Text())
	return nil
}
