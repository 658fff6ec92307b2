// A small end-to-end warehouse session: build a star schema, index it
// (encoded bitmap + bitmapped join index), answer a star join, adapt the
// encoding to the observed query history (the paper's future-work items 3
// and 4), and persist the index to disk for the next session.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/joinidx"
	"repro/internal/query"
	"repro/internal/table"
	"repro/internal/workload"
)

func main() {
	r := rand.New(rand.NewSource(23))
	star, err := workload.BuildStar(r, workload.StarConfig{
		Facts: 80000, Products: 500, SalesPoints: 12, Days: 365, MaxQty: 50,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warehouse: SALES %d rows, PRODUCT %d rows\n\n", star.Schema.Fact.Len(), 500)

	// --- Index the fact table behind the mutable handle, so the encoding
	// can adapt later.
	catIx, err := core.BuildSynced(star.Category, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	ji, err := joinidx.Build(star.Schema, "product")
	if err != nil {
		log.Fatal(err)
	}
	ex := query.NewExecutor(star.Schema.Fact)
	ex.Use("product.category", joinidx.Adapter{JI: ji, DimColumn: "category"})

	// --- A star join through the bitmapped join index.
	rows, st, err := ex.Eval(query.And{Preds: []query.Predicate{
		query.Eq{Col: "product.category", Val: table.IntCell(4)},
		query.Range{Col: "qty", Lo: 25, Hi: 50},
	}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("star join (dim category=4 AND fact qty>=25): %d rows, %d bitmap vectors\n\n",
		rows.Count(), st.VectorsRead)

	// --- The query log shows two hot category groups; adapt the encoding.
	hotA := []int64{1, 9, 17, 3}
	hotB := []int64{2, 10, 18, 6}
	var history []encoding.WorkloadEntry[int64]
	for i := 0; i < 40; i++ {
		history = append(history, encoding.WorkloadEntry[int64]{Values: hotA})
	}
	for i := 0; i < 25; i++ {
		history = append(history, encoding.WorkloadEntry[int64]{Values: hotB})
	}
	mined := encoding.MineWorkload(history, 3)
	preds, weights := encoding.PredicatesOf(mined)
	applied, plan, err := catIx.OptimizeFor(preds, weights, 1<<20, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-encoding for the mined workload: cost %d -> %d, applied=%v (break-even %d evals)\n\n",
		plan.CurrentCost, plan.NewCost, applied, plan.BreakEvenEvaluations())

	// --- Persist the adapted index and reload it.
	var file bytes.Buffer // stands in for a file on disk
	err = catIx.WithReadLock(func(ix *core.Index[int64]) error {
		return core.Save(&file, ix, core.Int64Codec{})
	})
	if err != nil {
		log.Fatal(err)
	}
	loaded, err := core.Load[int64](bytes.NewReader(file.Bytes()), core.Int64Codec{})
	if err != nil {
		log.Fatal(err)
	}
	before, _ := catIx.In(hotA)
	after, stLoaded := loaded.In(hotA)
	fmt.Printf("persisted %d bytes; reloaded index answers the hot query identically: %v (%d rows, %d vectors)\n",
		file.Len(), before.Equal(after), after.Count(), stLoaded.VectorsRead)
}
