package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/workload"
)

// runReencode demonstrates the paper's future-work items 3 and 4: mine a
// query history for hot subdomains, plan a re-encoding, price it with the
// break-even model, and apply it.
func runReencode(cfg config) error {
	fmt.Println("Future work §5(3)+(4): query-history mining and dynamic re-encoding")
	r := rand.New(rand.NewSource(cfg.seed))
	m := 64
	column := workload.Uniform(r, cfg.n, m)
	ix, err := core.BuildSynced(column, nil, nil)
	if err != nil {
		return err
	}

	// A drifted workload: users now co-access two scattered value groups.
	perm := r.Perm(m)
	hot1 := make([]int64, 8)
	hot2 := make([]int64, 8)
	for i := 0; i < 8; i++ {
		hot1[i] = int64(perm[i])
		hot2[i] = int64(perm[8+i])
	}
	var history []encoding.WorkloadEntry[int64]
	for i := 0; i < 70; i++ {
		history = append(history, encoding.WorkloadEntry[int64]{Values: hot1})
	}
	for i := 0; i < 30; i++ {
		history = append(history, encoding.WorkloadEntry[int64]{Values: hot2})
	}
	history = append(history, encoding.WorkloadEntry[int64]{Values: []int64{1}}) // noise

	mined := encoding.MineWorkload(history, 5)
	fmt.Printf("mined %d hot subdomains from %d logged queries\n", len(mined), len(history))
	preds, weights := encoding.PredicatesOf(mined)

	plan, err := ix.PlanReencode(preds, weights, &encoding.SearchOptions{SwapBudget: 600})
	if err != nil {
		return err
	}
	fmt.Printf("workload cost under current encoding: %d weighted vector reads\n", plan.CurrentCost)
	fmt.Printf("workload cost under proposed encoding: %d\n", plan.NewCost)
	fmt.Printf("rebuild cost: %d vector-bit writes; break-even after %d workload evaluations\n",
		plan.RebuildVectors, plan.BreakEvenEvaluations())

	before := measureWorkload(ix, preds, weights)
	t0 := time.Now()
	if err := ix.Reencode(plan.Mapping); err != nil {
		return err
	}
	rebuild := time.Since(t0)
	after := measureWorkload(ix, preds, weights)
	fmt.Printf("measured weighted vectors: %d before, %d after re-encoding (rebuild took %v)\n",
		before, after, rebuild.Round(time.Millisecond))
	return nil
}

func measureWorkload(ix *core.Synced[int64], preds [][]int64, weights []int) int {
	total := 0
	for i, p := range preds {
		_, st := ix.In(p)
		total += st.VectorsRead * weights[i]
	}
	return total
}
