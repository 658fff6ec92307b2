package main

import "fmt"

// metricDef names one reported metric and its unit. The lists below are
// the ones BENCHMARK.json declares (metrics_test.go keeps them equal).
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, reported for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"queries_per_s", "1/s"},
	{"query_p50_us", "us"},
	{"query_p99_us", "us"},
	{"vectors_per_query", "count"},
	{"index_bytes_per_row", "B"},
	{"append_rows_per_s", "1/s"},
	{"success_frac", "frac"},
}

// perLayer are the traced run's metrics. A layer the workload does not
// exercise reads 0.
var perLayer = []metricDef{
	{spanMap + "_us_per_query", "us"},
	{spanMinimize + "_us_per_query", "us"},
	{spanCompile + "_us_per_query", "us"},
	{spanKernel + "_us_per_query", "us"},
	{"boolmin.kernel_words_per_query", "count"},
	{"boolmin.ops_per_query", "count"},
	{spanRange + "_us_per_query", "us"},
	{spanLeaf + "_us_per_query", "us"},
	{"core.program_cache_hit_ratio", "frac"},
	{"core.append_us_p50", "us"},
	{"core.append_us_p99", "us"},
	{"core.reencode_ms", "ms"},
	{spanCombine + "_us_per_query", "us"},
	{"query.overhead_us_per_query", "us"},
	{"query.allocs_per_query", "count"},
	{"query.alloc_kb_per_query", "KiB"},
	{spanObserve + "_us_per_query", "us"},
	{"obs.overhead_us_per_query", "us"},
	{"runtime.gc_cycles_per_kquery", "count"},
	{"trace.eval_us_per_query", "us"},
	{"trace.overhead_us", "us"},
	{"trace.unattributed_frac", "frac"},
}

// setupStats are the set-up measurements of one run.
type setupStats struct {
	seconds     []float64 // one per set-up
	buildRowsPS []float64 // rows indexed per second of index build, one per set-up
	bytesPerRow float64
}

// endToEndMetrics computes the untraced metrics of a pass. tailLabel is
// "p99", or "max" when too few samples lie beyond the 99th percentile.
// A pass made of rounds reports the median over its rounds of each
// round's latency and append figures, so a round that a burst of host
// noise slowed does not move them. Queries after the last round are
// left out; a pass too short for one round is one round.
func endToEndMetrics(ps *pass, su setupStats) (m map[string]float64, tailLabel string) {
	rounds := ps.rounds
	if len(rounds) == 0 {
		rounds = []roundEnd{{len(ps.latUS), ps.appendRows, ps.appendNS}}
	}
	var qps, p50, p99, appendRate []float64
	tailLabel = "p99"
	var prev roundEnd
	for _, r := range rounds {
		asc := sorted(ps.latUS[prev.queries:r.queries])
		var total float64
		for _, v := range asc {
			total += v
		}
		tail, label := tailP99(asc)
		if label == "max" {
			tailLabel = "max"
		}
		qps = append(qps, ratio(float64(len(asc)), total/1e6))
		p50 = append(p50, median(asc))
		p99 = append(p99, tail)
		if ns := r.appendNS - prev.appendNS; ns > 0 {
			appendRate = append(appendRate, float64(r.appendRows-prev.appendRows)/(float64(ns)/1e9))
		}
		prev = r
	}
	if len(appendRate) == 0 { // read-only: the index builds' append rate
		appendRate = su.buildRowsPS
	}
	m = map[string]float64{
		"setup_s":             median(su.seconds),
		"queries_per_s":       median(qps),
		"query_p50_us":        median(p50),
		"query_p99_us":        median(p99),
		"vectors_per_query":   ratio(float64(ps.vectors), float64(ps.queries)),
		"index_bytes_per_row": su.bytesPerRow,
		"append_rows_per_s":   median(appendRate),
		"success_frac":        1 - ratio(float64(ps.failed), float64(ps.attempted)),
	}
	return m, tailLabel
}

// perLayerMetrics combines an untraced pass (allocation, GC, append and
// re-encoding samples, the untraced latency) with a traced one (layer
// self times and counts).
func perLayerMetrics(plain, traced *pass, sum traceSummary) map[string]float64 {
	nq := float64(sum.queries)
	m := make(map[string]float64)
	var layers int64
	for _, name := range layerSpans {
		layers += sum.layerNS[name]
		m[name+"_us_per_query"] = ratio(float64(sum.layerNS[name])/1e3, nq)
	}
	var evalNS float64
	for _, v := range sum.evalNS {
		evalNS += v
	}
	evalMean := ratio(evalNS/1e3, nq)
	overhead := ratio((evalNS-float64(layers))/1e3, nq)

	hits, misses := plain.progHits, plain.progMisses
	if hits+misses == 0 { // telemetry off: use the replay's mirror of the cache
		hits, misses = uint64(plain.lc.cacheHits), uint64(plain.lc.cacheMisses)
	}
	appendAsc := sorted(plain.appendUS)

	m["boolmin.kernel_words_per_query"] = ratio(float64(traced.lc.kernelWords), nq)
	m["boolmin.ops_per_query"] = ratio(float64(traced.lc.kernelOps), nq)
	m["core.program_cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["core.append_us_p50"] = median(appendAsc)
	m["core.append_us_p99"] = percentile(appendAsc, 99)
	m["core.reencode_ms"] = median(plain.reencodeMS)
	m["query.overhead_us_per_query"] = overhead
	m["query.allocs_per_query"] = ratio(float64(plain.allocs), float64(plain.queries))
	m["query.alloc_kb_per_query"] = ratio(float64(plain.allocBytes)/1024, float64(plain.queries))
	m["obs.overhead_us_per_query"] = ratio(float64(sum.obsOnNS-sum.obsOffNS)/1e3, float64(sum.obsQueries))
	m["runtime.gc_cycles_per_kquery"] = ratio(float64(plain.gcCycles), float64(plain.queries)/1e3)
	m["trace.eval_us_per_query"] = evalMean
	m["trace.overhead_us"] = median(sum.evalNS)/1e3 - median(plain.latUS)
	m["trace.unattributed_frac"] = ratio(overhead, evalMean)
	return m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// jsonMetric is one metric as the result line carries it.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// selectMetrics picks the listed metrics, failing if one was not computed.
func selectMetrics(defs []metricDef, values map[string]float64) (map[string]jsonMetric, error) {
	out := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", d.name)
		}
		out[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	return out, nil
}
