package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/boolmin"
	"repro/internal/bsi"
	"repro/internal/btree"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/reorder"
	"repro/internal/simplebitmap"
	"repro/internal/table"
	"repro/internal/workload"
)

// runMappings reproduces Figure 3: the proper mapping answers both
// selections with one vector each, the improper one needs three.
func runMappings(cfg config) error {
	fmt.Println("Figure 3: proper vs improper mappings for IN{a,b,c,d} and IN{c,d,e,f}")
	values := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	sel1 := []string{"a", "b", "c", "d"}
	sel2 := []string{"c", "d", "e", "f"}

	proper := encoding.NewMapping[string](3)
	for v, c := range map[string]uint32{
		"a": 0b000, "c": 0b001, "g": 0b010, "e": 0b011,
		"b": 0b100, "d": 0b101, "h": 0b110, "f": 0b111,
	} {
		proper.MustAdd(v, c)
	}
	improper := encoding.NewMapping[string](3)
	for v, c := range map[string]uint32{
		"a": 0b000, "c": 0b001, "g": 0b010, "b": 0b011,
		"e": 0b100, "d": 0b101, "h": 0b110, "f": 0b111,
	} {
		improper.MustAdd(v, c)
	}
	found, err := encoding.FindEncoding(values, [][]string{sel1, sel2}, nil)
	if err != nil {
		return err
	}

	w := newTab()
	fmt.Fprintln(w, "mapping\tIN{a,b,c,d}\tvectors\tIN{c,d,e,f}\tvectors")
	for _, row := range []struct {
		name string
		m    *encoding.Mapping[string]
	}{
		{"figure 3(a) proper", proper},
		{"figure 3(b) improper", improper},
		{"search-found", found},
	} {
		c1, _ := row.m.CodesOf(sel1)
		c2, _ := row.m.CodesOf(sel2)
		e1 := boolmin.Minimize(3, c1, nil)
		e2 := boolmin.Minimize(3, c2, nil)
		fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%d\n", row.name, e1, e1.AccessCost(), e2, e2.AccessCost())
	}
	return w.Flush()
}

// runGroupSet reproduces the Section 4 group-set comparison and runs a
// group-by on the synthetic star.
func runGroupSet(cfg config) error {
	fmt.Println("Section 4: group-set indexing, simple vs encoded")
	fmt.Println("paper example: cardinalities (100,200,500)")
	fmt.Printf("  simple group-set bitmaps: 100*200*500 = %d vectors\n", 100*200*500)
	fmt.Printf("  encoded, per-attribute concatenation: 7+8+9 = %d vectors\n", 7+8+9)
	fmt.Printf("  encoded over occurring combinations (10%% density, footnote 5): ceil(log2 1e6) = %d vectors\n\n",
		encoding.BitsFor(1000000))

	r := rand.New(rand.NewSource(cfg.seed))
	star, err := workload.BuildStar(r, workload.StarConfig{
		Facts: cfg.n / 4, Products: 1000, SalesPoints: 12, Days: 730, MaxQty: 50,
	})
	if err != nil {
		return err
	}
	catIx, err := core.Build(star.Category, nil, nil)
	if err != nil {
		return err
	}
	spIx, err := core.Build(star.SalesPoint, nil, nil)
	if err != nil {
		return err
	}
	g, err := core.NewGroupSet(catIx, spIx)
	if err != nil {
		return err
	}
	all, _ := catIx.Existing()
	start := time.Now()
	sums, err := g.GroupSum(all, star.Revenue)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("group-by (category x salespoint) over %d rows: %d groups via %d bit vectors in %v\n",
		all.Count(), len(sums), g.NumVectors(), elapsed.Round(time.Microsecond))
	return nil
}

// runMeasure is the empirical Figure 9: measured vectors read and wall
// time per selection width δ, across index types.
func runMeasure(cfg config) error {
	for _, m := range []int{50, 1000} {
		fmt.Printf("\nempirical range-selection cost, |A|=%d, n=%d uniform rows\n", m, cfg.n)
		r := rand.New(rand.NewSource(cfg.seed))
		column := workload.Uniform(r, cfg.n, m)
		ucol := make([]uint64, len(column))
		for i, v := range column {
			ucol[i] = uint64(v)
		}
		simple, err := simplebitmap.Build(column, nil)
		if err != nil {
			return err
		}
		ebi, err := core.BuildOrdered(column, nil, nil)
		if err != nil {
			return err
		}
		slice := bsi.Build(ucol)
		tree := btree.Build(ucol, cfg.degree)

		w := newTab()
		fmt.Fprintln(w, "delta\tsimple_vec\tsimple_time\tebi_vec\tebi_time\tbsi_vec\tbsi_time\tbtree_time")
		for _, delta := range []int{1, 2, 4, m / 8, m / 4, m / 2, m - m/8, m} {
			if delta < 1 {
				continue
			}
			lo := int64(0)
			hi := int64(delta - 1)
			var vals []int64
			for v := lo; v <= hi; v++ {
				vals = append(vals, v)
			}
			t0 := time.Now()
			_, stS := simple.In(vals)
			dS := time.Since(t0)
			t0 = time.Now()
			_, stE := ebi.Range(lo, hi)
			dE := time.Since(t0)
			t0 = time.Now()
			_, stB := slice.Range(uint64(lo), uint64(hi))
			dB := time.Since(t0)
			t0 = time.Now()
			_, _ = tree.Range(uint64(lo), uint64(hi), len(column))
			dT := time.Since(t0)
			fmt.Fprintf(w, "%d\t%d\t%v\t%d\t%v\t%d\t%v\t%v\n",
				delta, stS.VectorsRead, dS.Round(time.Microsecond),
				stE.VectorsRead, dE.Round(time.Microsecond),
				stB.VectorsRead, dB.Round(time.Microsecond),
				dT.Round(time.Microsecond))
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// runMaintenance measures build and append costs: Section 3.1's O(n·m) vs
// O(n·log m) and the domain-expansion path. Encoded appends go through
// the mutable Synced handle and include the Flush that folds them into
// the base vectors.
func runMaintenance(cfg config) error {
	fmt.Println("Section 2.2/3.1: build and maintenance cost, simple vs encoded")
	r := rand.New(rand.NewSource(cfg.seed))
	n := cfg.n / 2
	w := newTab()
	fmt.Fprintln(w, "m\tbuild_simple\tbuild_encoded\tappend_simple\tappend_encoded\texpand_encoded")
	for _, m := range []int{16, 256, 4096} {
		column := workload.Uniform(r, n, m)
		t0 := time.Now()
		simple, err := simplebitmap.Build(column, nil)
		if err != nil {
			return err
		}
		buildS := time.Since(t0)
		t0 = time.Now()
		ebi, err := core.BuildSynced(column, nil, nil)
		if err != nil {
			return err
		}
		buildE := time.Since(t0)

		const appends = 2000
		t0 = time.Now()
		for i := 0; i < appends; i++ {
			simple.Append(int64(i % m))
		}
		appS := time.Since(t0) / appends
		t0 = time.Now()
		for i := 0; i < appends; i++ {
			if err := ebi.Append(int64(i % m)); err != nil {
				return err
			}
		}
		ebi.Flush()
		appE := time.Since(t0) / appends

		// Domain expansion: append values never seen before.
		t0 = time.Now()
		for i := 0; i < 64; i++ {
			if err := ebi.Append(int64(m + i)); err != nil {
				return err
			}
		}
		ebi.Flush()
		expE := time.Since(t0) / 64
		fmt.Fprintf(w, "%d\t%v\t%v\t%v\t%v\t%v\n",
			m, buildS.Round(time.Millisecond), buildE.Round(time.Millisecond),
			appS.Round(time.Nanosecond), appE.Round(time.Nanosecond), expE.Round(time.Nanosecond))
	}
	return w.Flush()
}

// runCompression quantifies Section 4's run-length-compression remedy:
// sparse simple vectors compress, dense encoded vectors do not — unless
// the rows are reordered first. The reordered columns re-compress the
// simple vectors under each internal/reorder heuristic, planned over the
// measured column plus a low-cardinality companion (so the measured
// column trails the sort and the lex-vs-Gray difference shows).
func runCompression(cfg config) error {
	fmt.Println("WAH compression of index vectors (ratio = compressed/raw; <1 compresses)")
	fmt.Println("reordered columns: simple-vector ratio after the row-reordering pass")
	r := rand.New(rand.NewSource(cfg.seed))
	w := newTab()
	fmt.Fprintln(w, "m\tsimple_raw_MB\tsimple_wah_MB\tratio\tencoded_raw_MB\tencoded_wah_MB\tratio\tlex\tgray\thistogram")
	for _, m := range []int{16, 256, 4096} {
		column := workload.Uniform(r, cfg.n, m)
		companion := workload.Zipf(r, cfg.n, 8, 1.2)
		simple, err := simplebitmap.Build(column, nil)
		if err != nil {
			return err
		}
		ebi, err := core.Build(column, nil, &core.Options[int64]{DisableVoidReserve: true})
		if err != nil {
			return err
		}
		var sRaw, sWah int
		for _, v := range simple.Values() {
			vec := simple.VectorFor(v)
			sRaw += vec.SizeBytes()
			sWah += compress.Compress(vec).SizeBytes()
		}
		var eRaw, eWah int
		for i := 0; i < ebi.K(); i++ {
			vec := ebi.Vector(i)
			eRaw += vec.SizeBytes()
			eWah += compress.Compress(vec).SizeBytes()
		}

		tab := table.MustNew("t",
			table.NewColumn("v", table.Int64),
			table.NewColumn("g", table.Int64),
		)
		for i := range column {
			if err := tab.AppendRow(table.IntCell(column[i]), table.IntCell(companion[i])); err != nil {
				return err
			}
		}
		sorted := make([]float64, 0, 3)
		for _, spec := range []reorder.Spec{reorder.LexAsc, reorder.GrayAsc, reorder.GrayHist} {
			p, err := reorder.PlanTable(tab, spec)
			if err != nil {
				return err
			}
			var wah int
			for _, v := range simple.Values() {
				cv, err := compress.CompressPermuted(simple.VectorFor(v), p.Perm)
				if err != nil {
					return err
				}
				wah += cv.SizeBytes()
			}
			sorted = append(sorted, float64(wah)/float64(sRaw))
		}

		mb := func(b int) float64 { return float64(b) / (1 << 20) }
		fmt.Fprintf(w, "%d\t%.2f\t%.2f\t%.3f\t%.2f\t%.2f\t%.3f\t%.3f\t%.3f\t%.3f\n",
			m, mb(sRaw), mb(sWah), float64(sWah)/float64(sRaw),
			mb(eRaw), mb(eWah), float64(eWah)/float64(eRaw),
			sorted[0], sorted[1], sorted[2])
	}
	return w.Flush()
}
