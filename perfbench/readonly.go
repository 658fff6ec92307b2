package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/iostat"
	"repro/internal/query"
	"repro/internal/workload"
)

// starConfig is the TPC-D-flavoured star every workload draws from:
// 1000 Zipf-skewed products, 12 salespoints, 730 days.
func starConfig(facts int) workload.StarConfig {
	return workload.StarConfig{Facts: facts, Products: 1000, SalesPoints: 12, Days: 730, MaxQty: 50}
}

// built is one set-up of a read-only workload.
type built struct {
	eval    func(query.Predicate) (*bitvec.Vector, iostat.Stats, error)
	plain   map[string]*core.Index[int64]
	ordered map[string]*core.OrderedIndex[int64]
	buildNS int64 // time inside the index builds, which append row by row
}

// readOnly is a workload whose data never changes after set-up: its
// indexes are built setups times (setup_s is the median, and the last
// build is the one queried), then a fixed script of queries is cycled
// through for the run's duration.
type readOnly struct {
	star   *workload.Star
	cols   map[string][]int64
	setups int
	build  func() (*built, error)
	script []query.Predicate
}

func (ro *readOnly) run(opt options) (*outcome, error) {
	var su setupStats
	var b *built
	for i := 0; i < ro.setups; i++ {
		b = nil
		runtime.GC()
		t0 := time.Now()
		nb, err := ro.build()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		su.seconds = append(su.seconds, time.Since(t0).Seconds())
		su.buildRowsPS = append(su.buildRowsPS, float64(ro.star.Config.Facts)/(float64(nb.buildNS)/1e9))
		b = nb
	}
	columns := make(map[string]*ebiColumn)
	var bytes int
	for name, ix := range b.plain {
		columns[name] = newEBIColumn(ix, nil)
		bytes += ix.SizeBytes()
	}
	for name, oi := range b.ordered {
		columns[name] = newEBIColumn(oi.Index(), oi)
		bytes += oi.Index().SizeBytes()
	}
	su.bytesPerRow = float64(bytes) / float64(ro.star.Config.Facts)
	sys := &system{
		eval: b.eval,
		ref:  newScanRef(ro.cols),
		leaf: func(t *tracer, lc *layerCounts, p query.Predicate) (*bitvec.Vector, error) {
			c, ok := columns[leafColumn(p)]
			if !ok {
				return nil, fmt.Errorf("replay: no index on %s", leafColumn(p))
			}
			return c.replayLeaf(t, lc, p)
		},
		note: func(lc *layerCounts, p query.Predicate) {
			if c, ok := columns[leafColumn(p)]; ok {
				c.note(lc, p)
			}
		},
	}
	out := measure(opt, &su, func(ps *pass, i int) {
		ps.query(sys, ro.script[i%len(ro.script)])
		if (i+1)%readOnlyRound == 0 {
			ps.endRound()
		}
	})
	out.rows = ro.star.Config.Facts
	return out, nil
}

// readOnlyRound is how many queries make one round of a read-only run:
// enough that at least ten lie beyond each round's 99th percentile.
const readOnlyRound = 1000

func leafColumn(p query.Predicate) string {
	switch p := p.(type) {
	case query.Eq:
		return p.Col
	case query.In:
		return p.Col
	case query.Range:
		return p.Col
	}
	return ""
}

// newTPCDMix is the paper's own query mix (§3.2): a star of facts rows
// (1M in the benchmark), the 17-type workload.QueryMix re-instantiated
// every round, answered by query.Planner over one order-preserving EBI
// path per column.
func newTPCDMix(seed int64, facts int) (*readOnly, error) {
	star, err := workload.BuildStar(rand.New(rand.NewSource(seed)), starConfig(facts))
	if err != nil {
		return nil, err
	}
	cols := map[string][]int64{
		"product": star.Product, "salespoint": star.SalesPoint, "day": star.Day,
		"qty": star.Qty, "discount": star.Discount,
	}
	r := rand.New(rand.NewSource(scriptSeed(seed)))
	var script []query.Predicate
	for round := 0; round < 400; round++ {
		for _, q := range workload.QueryMix(r, star) {
			script = append(script, q.Pred)
		}
	}
	build := func() (*built, error) {
		b := &built{ordered: make(map[string]*core.OrderedIndex[int64])}
		pl := query.NewPlanner(query.NewExecutor(star.Schema.Fact))
		for _, name := range sortedKeys(cols) {
			t0 := time.Now()
			oi, err := core.BuildOrdered(cols[name], nil, nil)
			if err != nil {
				return nil, fmt.Errorf("index %s: %w", name, err)
			}
			b.buildNS += time.Since(t0).Nanoseconds()
			b.ordered[name] = oi
			path := query.AccessPath{Name: "ebi", Index: query.OrderedEBI{Ix: oi}, Model: query.EBIModel(oi.K())}
			if err := pl.AddPath(name, path); err != nil {
				return nil, err
			}
		}
		b.eval = func(p query.Predicate) (*bitvec.Vector, iostat.Stats, error) {
			rows, st, _, err := pl.Eval(p)
			return rows, st, err
		}
		return b, nil
	}
	return &readOnly{star: star, cols: cols, setups: 7, build: build, script: script}, nil
}

// inListWidths are the IN-list widths the inlist workload draws from.
var inListWidths = []int{1, 4, 8, 16, 64}

// newInList is the minimization-bound workload (§2.2): a 200k-row star
// queried with fresh IN and NOT IN lists on day (730 values in 1024
// codes) and product through query.Executor over plain EBIs. Five in six
// lists are on day: day's fastest width sits below the rest of its lists,
// and with this share the median lands inside the band of the others
// rather than on the edge between the two.
func newInList(seed int64) (*readOnly, error) {
	star, err := workload.BuildStar(rand.New(rand.NewSource(seed)), starConfig(200_000))
	if err != nil {
		return nil, err
	}
	cols := map[string][]int64{"product": star.Product, "day": star.Day}
	domains := map[string][]int64{"product": distinct(star.Product), "day": distinct(star.Day)}
	r := rand.New(rand.NewSource(scriptSeed(seed)))
	script := make([]query.Predicate, 3000)
	for i := range script {
		col := "day"
		if r.Intn(6) == 0 {
			col = "product"
		}
		vals := pick(r, domains[col], inListWidths[r.Intn(len(inListWidths))])
		var p query.Predicate = query.In{Col: col, Vals: intCells(vals)}
		if r.Intn(2) == 0 {
			p = query.Not{Pred: p}
		}
		script[i] = p
	}
	build := func() (*built, error) {
		b := &built{plain: make(map[string]*core.Index[int64])}
		ex := query.NewExecutor(star.Schema.Fact)
		for _, name := range sortedKeys(cols) {
			t0 := time.Now()
			ix, err := core.Build(cols[name], nil, nil)
			if err != nil {
				return nil, fmt.Errorf("index %s: %w", name, err)
			}
			b.buildNS += time.Since(t0).Nanoseconds()
			b.plain[name] = ix
			ex.Use(name, query.EBIInt{Ix: ix})
		}
		b.eval = ex.Eval
		return b, nil
	}
	// A build takes about a tenth of tpcd-mix's, so more of them give
	// setup_s a steady median at a similar cost.
	return &readOnly{star: star, cols: cols, setups: 15, build: build, script: script}, nil
}

// scriptSeed derives the query script's seed from the workload seed, so
// data and script are independent streams of the same seed.
func scriptSeed(seed int64) int64 { return seed ^ 0x5eed5c12 }

// distinct returns the ascending distinct values of a column.
func distinct(col []int64) []int64 {
	seen := make(map[int64]bool)
	var out []int64
	for _, v := range col {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pick draws k distinct values from domain.
func pick(r *rand.Rand, domain []int64, k int) []int64 {
	k = min(k, len(domain))
	out := make([]int64, 0, k)
	for _, i := range r.Perm(len(domain))[:k] {
		out = append(out, domain[i])
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
