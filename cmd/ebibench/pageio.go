package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/query"
	"repro/internal/simplebitmap"
	"repro/internal/table"
	"repro/internal/workload"
)

// runPageIO puts the paper's disk-cost view (footnote 4) on stage: under
// a fixed buffer-cache budget, repeated predefined selections fault far
// fewer pages through an encoded bitmap index (k vectors total, hot in
// cache) than through a simple one (δ vectors per query, evicting each
// other).
func runPageIO(cfg config) error {
	r := rand.New(rand.NewSource(cfg.seed))
	m := 1000
	column := workload.Uniform(r, cfg.n, m)
	fmt.Printf("page I/O under a buffer cache, |A|=%d, n=%d, page=%d bytes\n", m, cfg.n, cfg.page)

	ebi, err := core.Build(column, nil, nil)
	if err != nil {
		return err
	}
	layout := pagestore.NewLayout(cfg.n, cfg.page)
	per := layout.PagesPerVector()
	// Budget: enough pages to keep the whole encoded index resident but
	// only a small fraction of the simple one.
	budget := (ebi.K() + 4) * per
	fmt.Printf("pages per vector: %d; cache budget: %d pages (encoded index needs %d, simple would need %d)\n\n",
		per, budget, ebi.K()*per, m*per)

	paged := pagestore.NewPagedIndex(ebi, budget, cfg.page)

	// Simple index simulation: same cache discipline, vectors identified
	// by value code.
	simple, err := simplebitmap.Build(column, nil)
	if err != nil {
		return err
	}
	simpleCache := pagestore.NewCache(budget)

	// Workload: 200 queries drawn from 8 predefined IN-selections of
	// width 32.
	type sel struct{ vals []int64 }
	var sels []sel
	for s := 0; s < 8; s++ {
		base := int64(r.Intn(m - 32))
		vals := make([]int64, 32)
		for i := range vals {
			vals[i] = base + int64(i)
		}
		sels = append(sels, sel{vals})
	}

	var encFaults, simFaults int
	for q := 0; q < 200; q++ {
		s := sels[r.Intn(len(sels))]
		_, _, pg := paged.In(s.vals)
		encFaults += pg.Misses
		_, st := simple.In(s.vals)
		_ = st
		for _, v := range s.vals {
			if simple.VectorFor(v) != nil {
				simpleCache.ReadRun(int(v), per)
			}
		}
	}
	simFaults = simpleCache.Stats().Misses

	w := newTab()
	fmt.Fprintln(w, "index\tpage_faults\thit_rate")
	fmt.Fprintf(w, "encoded\t%d\t%.3f\n", encFaults, paged.Cache().Stats().HitRate())
	fmt.Fprintf(w, "simple\t%d\t%.3f\n", simFaults, simpleCache.Stats().HitRate())
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("\n200 width-32 selections: the encoded index's %d vectors stay resident;\n", ebi.K())
	fmt.Println("the simple index streams 32 sparse vectors per query through the same cache.")
	return nil
}

// runPlanner demonstrates the cost-based access-path selection built on
// the paper's Section 3 model: point selections route to the simple
// bitmap index, wide ranges to the encoded one, with the switch at
// δ ≈ log2|A|.
func runPlanner(cfg config) error {
	r := rand.New(rand.NewSource(cfg.seed))
	m := 64
	column := workload.Uniform(r, cfg.n, m)
	tab := table.MustNew("t", table.NewColumn("v", table.Int64))
	for _, v := range column {
		if err := tab.AppendRow(table.IntCell(v)); err != nil {
			return err
		}
	}
	simple, err := simplebitmap.Build(column, nil)
	if err != nil {
		return err
	}
	ordered, err := core.BuildOrdered(column, nil, nil)
	if err != nil {
		return err
	}
	pl := query.NewPlanner(query.NewExecutor(tab))
	if err := pl.AddPath("v", query.AccessPath{Name: "simple", Index: query.Simple[int64]{Ix: simple}, Model: query.SimpleBitmapModel()}); err != nil {
		return err
	}
	if err := pl.AddPath("v", query.AccessPath{Name: "encoded", Index: query.OrderedEBI{Ix: ordered}, Model: query.EBIModel(ordered.K())}); err != nil {
		return err
	}
	fmt.Printf("cost-based planner, |A|=%d (k=%d): chosen access path by selection width\n\n", m, ordered.K())
	w := newTab()
	fmt.Fprintln(w, "delta\tchosen\testimated_cost\tactual_vectors")
	for _, delta := range []int{1, 2, 4, 6, 7, 8, 16, 32, 64} {
		lo := int64(0)
		hi := int64(delta - 1)
		_, st, choices, err := pl.Eval(query.Range{Col: "v", Lo: lo, Hi: hi})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%s\t%.0f\t%d\n", delta, choices[0].Path, choices[0].Cost, st.VectorsRead)
	}
	return w.Flush()
}
