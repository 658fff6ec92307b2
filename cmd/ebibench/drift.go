package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/table"
	"repro/internal/workload"
)

// runDrift demonstrates the live half of future work §5(3)+(4): a
// Recorder profiling the predicate stream through a Space-Saving sketch,
// and a Watcher that notices the workload shifting away from what the
// build-time encoding is good at, prices a re-encoding, and agrees
// exactly with an offline PlanReencode over the same captured workload.
func runDrift(cfg config) error {
	fmt.Println("Live workload profiling: drift watcher closing the loop to the re-encoding model")
	// 63 values + the reserved void code fill the 6-bit code space
	// exactly: with no don't-care codes the Theorem 2.2 minimum is tight,
	// so a point mix on this index genuinely scores zero drift.
	r := rand.New(rand.NewSource(cfg.seed))
	m := 63
	column := workload.Uniform(r, cfg.n, m)
	ix, err := core.BuildSynced(column, nil, nil)
	if err != nil {
		return err
	}
	fmt.Printf("indexed %d rows, %d distinct values, k=%d vectors\n",
		ix.Len(), ix.Cardinality(), ix.K())

	// The demo queries run through the query layer rather than raw
	// ix.Eq/ix.In calls, so with -serve each evaluation carries a
	// "family" pprof label and lands in the /debug/requests table — a
	// CPU profile captured during phase 2 attributes its samples to the
	// same family keys the requests table and drift sketch report. The
	// SelectionObserver rides the core index either way, so the drift
	// accounting below is unchanged.
	tab := table.MustNew("drift", table.NewColumn("v", table.Int64))
	for _, v := range column {
		if err := tab.AppendRow(table.IntCell(v)); err != nil {
			return err
		}
	}
	ex := query.NewExecutor(tab)
	ex.Use("v", query.EBI[int64]{Ix: ix})
	inCells := func(vals []int64) []table.Cell {
		cells := make([]table.Cell, len(vals))
		for i, v := range vals {
			cells[i] = table.IntCell(v)
		}
		return cells
	}

	logger := obs.NewLogger(obs.LevelWarn)
	logger.SetWriter(os.Stdout)
	rec := drift.NewRecorder[int64]("demo", 64, 256)
	ix.SetSelectionObserver(rec)
	w := drift.NewWatcher[int64](ix, rec, drift.Config{
		Interval:       50 * time.Millisecond,
		ScoreThreshold: 0.2,
		Logger:         logger,
	})
	w.Start()
	defer w.Stop()

	// Phase 1: a uniform point mix. A point selection must read all k
	// vectors under any encoding (Theorem 2.2 with δ=1), so the encoding
	// is blameless and the drift score stays at zero.
	for i := 0; i < 600; i++ {
		if _, _, err := ex.Eval(query.Eq{Col: "v", Val: table.IntCell(int64(i % m))}); err != nil {
			return err
		}
	}
	rep := w.RunOnce()
	fmt.Printf("phase 1 (uniform point mix): %d evaluations, drift score %.2f\n",
		rep.Observed, rep.DriftScore)

	// Phase 2: the workload shifts — two scattered 8-value groups now
	// dominate. The build-time encoding spends ~k reads on each where a
	// workload-aware encoding could retrieve the group in k-3.
	perm := r.Perm(m)
	hot1, hot2 := make([]int64, 8), make([]int64, 8)
	for i := 0; i < 8; i++ {
		hot1[i], hot2[i] = int64(perm[i]), int64(perm[8+i])
	}
	in1, in2 := query.In{Col: "v", Vals: inCells(hot1)}, query.In{Col: "v", Vals: inCells(hot2)}
	for i := 0; i < 500; i++ {
		if _, _, err := ex.Eval(in1); err != nil {
			return err
		}
		if i%2 == 0 {
			if _, _, err := ex.Eval(in2); err != nil {
				return err
			}
		}
	}
	rep = w.RunOnce()
	fmt.Printf("phase 2 (shifted mix): %d evaluations, drift score %.2f (sketch overcount <= %d)\n",
		rep.Observed, rep.DriftScore, rep.SketchErrBound)
	if len(rep.TopPredicates) > 0 {
		e := rep.TopPredicates[0]
		fmt.Printf("hottest predicate: IN(%s) count~%d (err <= %d)\n", e.Key, e.Count, e.Err)
	}
	if rep.Plan == nil {
		return fmt.Errorf("drift: watcher produced no plan: %s", rep.Error)
	}
	fmt.Printf("watcher plan: cost %d -> %d weighted vector reads (gain %d), rebuild %d vector-bits, break-even after %d evaluations, proposed k=%d\n",
		rep.Plan.CurrentCost, rep.Plan.NewCost, rep.Plan.Gain,
		rep.Plan.RebuildVectors, rep.Plan.BreakEvenEvaluations, rep.Plan.ProposedK)
	if rep.Advice != nil {
		fmt.Printf("advisor: %s — %s\n", rep.Advice.Kind, rep.Advice.Reason)
	}

	// The loop is honest: an offline PlanReencode over the same captured
	// workload must agree with the watcher field for field.
	preds, weights := rec.Workload(0)
	offline, err := ix.PlanReencode(preds, weights, nil)
	if err != nil {
		return err
	}
	if offline.CurrentCost != rep.Plan.CurrentCost || offline.NewCost != rep.Plan.NewCost ||
		offline.Gain() != rep.Plan.Gain ||
		offline.BreakEvenEvaluations() != rep.Plan.BreakEvenEvaluations ||
		offline.RebuildVectors != rep.Plan.RebuildVectors ||
		offline.Mapping.K() != rep.Plan.ProposedK {
		return fmt.Errorf("drift: watcher plan diverges from offline PlanReencode")
	}
	fmt.Println("offline PlanReencode over the captured workload matches the watcher exactly")

	// Close the loop: apply the proposed mapping and measure the payoff.
	before := measureWorkload(ix, preds, weights)
	t0 := time.Now()
	if err := ix.Reencode(offline.Mapping); err != nil {
		return err
	}
	after := measureWorkload(ix, preds, weights)
	fmt.Printf("applied: measured weighted vectors %d before, %d after re-encoding (rebuild took %v)\n",
		before, after, time.Since(t0).Round(time.Millisecond))
	return nil
}
