package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bsi"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/iostat"
	"repro/internal/query"
	"repro/internal/simplebitmap"
	"repro/internal/workload"
)

// runTPCD executes the 17-type TPC-D-flavoured query mix against four
// index configurations and reports per-type and total costs. The paper's
// argument: 12 of 17 types involve range search, so the encoded bitmap
// index wins the mix even though point queries favor simple bitmaps.
func runTPCD(cfg config) error {
	r := rand.New(rand.NewSource(cfg.seed))
	scfg := workload.StarConfig{Facts: cfg.n, Products: 1000, SalesPoints: 12, Days: 730, MaxQty: 50}
	star, err := workload.BuildStar(r, scfg)
	if err != nil {
		return err
	}
	fmt.Printf("TPC-D-flavoured mix on SALES with %d rows (products=%d, days=%d)\n",
		scfg.Facts, scfg.Products, scfg.Days)

	// Executors: encoded, simple, bit-sliced, B-tree.
	mkExec := func(build func(ex *query.Executor) error) (*query.Executor, error) {
		ex := query.NewExecutor(star.Schema.Fact)
		return ex, build(ex)
	}
	toU64 := func(xs []int64) []uint64 {
		out := make([]uint64, len(xs))
		for i, v := range xs {
			out[i] = uint64(v)
		}
		return out
	}

	ebiExec, err := mkExec(func(ex *query.Executor) error {
		for col, vals := range map[string][]int64{
			"product": star.Product, "day": star.Day,
			"qty": star.Qty, "discount": star.Discount,
		} {
			oi, err := core.BuildOrdered(vals, nil, nil)
			if err != nil {
				return err
			}
			ex.Use(col, query.OrderedEBI{Ix: oi})
		}
		sp, err := core.Build(star.SalesPoint, nil, nil)
		if err != nil {
			return err
		}
		ex.Use("salespoint", query.EBIInt{Ix: sp})
		return nil
	})
	if err != nil {
		return err
	}

	simpleExec, err := mkExec(func(ex *query.Executor) error {
		for col, vals := range map[string][]int64{
			"product": star.Product, "salespoint": star.SalesPoint,
			"day": star.Day, "qty": star.Qty, "discount": star.Discount,
		} {
			ix, err := simplebitmap.Build(vals, nil)
			if err != nil {
				return err
			}
			ex.Use(col, query.Simple[int64]{Ix: ix})
		}
		return nil
	})
	if err != nil {
		return err
	}

	bsiExec, err := mkExec(func(ex *query.Executor) error {
		for col, vals := range map[string][]int64{
			"product": star.Product, "salespoint": star.SalesPoint,
			"day": star.Day, "qty": star.Qty, "discount": star.Discount,
		} {
			ex.Use(col, query.BSIAdapter{Ix: bsi.Build(toU64(vals))})
		}
		return nil
	})
	if err != nil {
		return err
	}

	btreeExec, err := mkExec(func(ex *query.Executor) error {
		for col, vals := range map[string][]int64{
			"product": star.Product, "salespoint": star.SalesPoint,
			"day": star.Day, "qty": star.Qty, "discount": star.Discount,
		} {
			ex.Use(col, query.BTreeAdapter{Ix: btree.Build(toU64(vals), cfg.degree), NRows: len(vals)})
		}
		return nil
	})
	if err != nil {
		return err
	}

	execs := []struct {
		name string
		ex   *query.Executor
	}{
		{"encoded", ebiExec}, {"simple", simpleExec}, {"bsi", bsiExec}, {"btree", btreeExec},
	}

	mix := workload.QueryMix(r, star)
	w := newTab()
	fmt.Fprintln(w, "query\trange\trows\tencoded_vec\tsimple_vec\tencoded_time\tsimple_time\tbsi_time\tbtree_time")
	totals := make(map[string]time.Duration)
	totalVec := make(map[string]int)
	for _, q := range mix {
		var rows int
		times := make(map[string]time.Duration)
		stats := make(map[string]iostat.Stats)
		for _, e := range execs {
			t0 := time.Now()
			res, st, err := e.ex.Eval(q.Pred)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", e.name, q.Name, err)
			}
			d := time.Since(t0)
			times[e.name] = d
			stats[e.name] = st
			totals[e.name] += d
			totalVec[e.name] += st.VectorsRead
			rows = res.Count()
		}
		kind := "point"
		if q.IsRange {
			kind = "range"
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%v\t%v\t%v\t%v\n",
			q.Name, kind, rows,
			stats["encoded"].VectorsRead, stats["simple"].VectorsRead,
			times["encoded"].Round(time.Microsecond), times["simple"].Round(time.Microsecond),
			times["bsi"].Round(time.Microsecond), times["btree"].Round(time.Microsecond))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("\nmix totals: ")
	for _, e := range execs {
		fmt.Printf("%s %v (vectors %d)  ", e.name, totals[e.name].Round(time.Millisecond), totalVec[e.name])
	}
	fmt.Println()
	return nil
}
