// Quickstart: build an encoded bitmap index over a column, run point and
// IN-list selections, and watch the cost stay logarithmic in the domain
// cardinality.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
)

func main() {
	// A fact-table column: 200,000 sales rows referencing 12,000 products
	// (the paper's motivating PRODUCTS example).
	r := rand.New(rand.NewSource(1))
	column := make([]int64, 200000)
	for i := range column {
		column[i] = int64(r.Intn(12000))
	}

	// Build with defaults: code 0 reserved for deleted tuples
	// (Theorem 2.1), unassigned codes used as don't-cares in logical
	// reduction.
	ix, err := core.Build(column, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d rows over %d distinct products\n", ix.Len(), ix.Cardinality())
	fmt.Printf("bitmap vectors: %d (a simple bitmap index would need %d)\n", ix.K(), ix.Cardinality())
	fmt.Printf("index size: %.1f MB (simple: ~%.1f MB)\n\n",
		float64(ix.SizeBytes())/(1<<20),
		float64(ix.Len())*float64(ix.Cardinality())/8/(1<<20))

	// Point selection: evaluates the value's retrieval Boolean function.
	rows, st := ix.Eq(4711)
	fmt.Printf("product = 4711: %d rows, %d vectors read\n", rows.Count(), st.VectorsRead)

	// IN-list selection of width 256: the retrieval expression is
	// minimized first, so the cost is bounded by k = 14 vectors — a
	// simple bitmap index would read 256.
	var list []int64
	for v := int64(4000); v < 4256; v++ {
		list = append(list, v)
	}
	rows, st = ix.In(list)
	fmt.Printf("product IN [4000,4256): %d rows, %d vectors read (simple index: %d)\n",
		rows.Count(), st.VectorsRead, len(list))

	// An Index is an immutable snapshot; Synced is the handle that changes
	// it. Deletion voids the tuple (code 0); no existence mask is ever
	// ANDed.
	before := rows.Count()
	target := rows.NextSet(0)
	sx := core.NewSynced(ix)
	if err := sx.Delete(target); err != nil {
		log.Fatal(err)
	}
	rows, _ = sx.In(list)
	fmt.Printf("after deleting row %d: %d -> %d rows, no existence vector needed (Theorem 2.1)\n",
		target, before, rows.Count())

	// Aggregates evaluate directly on a snapshot of the index.
	err = sx.WithReadLock(func(ix *core.Index[int64]) error {
		sum := core.Sum(ix, rows, func(v int64) float64 { return float64(v) })
		med, _ := core.Median(ix, rows, func(a, b int64) bool { return a < b })
		fmt.Printf("sum(product) over selection = %.0f, median = %d\n", sum, med)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
