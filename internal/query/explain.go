package query

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/bitvec"
	"repro/internal/iostat"
	"repro/internal/obs"
)

// Plan node kinds. A leaf is one access-path routing decision; the
// combinators mirror the predicate tree.
const (
	KindLeaf = "leaf"
	KindAnd  = "and"
	KindOr   = "or"
	KindNot  = "not"
)

// jsonFloat marshals like a float64 but renders non-finite values (the
// fallback path's +Inf estimate) as strings, which encoding/json cannot
// otherwise represent.
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return json.Marshal(fmt.Sprintf("%g", v))
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler, accepting either form.
func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return err
		}
		*f = jsonFloat(v)
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = jsonFloat(v)
	return nil
}

// PlanNode is one node of an explain tree. A leaf carries the planner's
// access-path choice (column, operation, selection width δ, chosen path,
// estimated cost in the model's vector-read currency); a combinator sums
// its children's estimates. After EXPLAIN ANALYZE the node additionally
// carries the actuals for its subtree: the iostat.Stats delta, the
// actual cost in the same currency, qualifying rows, and wall time.
type PlanNode struct {
	Kind string `json:"kind"`
	Pred string `json:"predicate"`

	// Leaf routing (Kind == KindLeaf).
	Column string `json:"column,omitempty"`
	Op     string `json:"op,omitempty"`
	Delta  int    `json:"delta,omitempty"`
	Path   string `json:"path,omitempty"`

	// Parallel is the segmented-execution degree the cost gate picked for
	// the leaf: in a plain EXPLAIN it is the gate's prediction, after
	// EXPLAIN ANALYZE it is the degree the leaf actually ran with. 0 or 1
	// means sequential and is omitted from every rendering.
	Parallel int `json:"parallel,omitempty"`

	// Fused reports that the leaf's chosen path evaluates this operation
	// through the fused single-pass kernel (LeafIndex.FusedOp). Unlike
	// Parallel it is a static property of the routing, so EXPLAIN's
	// prediction and EXPLAIN ANALYZE's observation agree unless the path
	// refuses the operation at run time.
	Fused bool `json:"fused,omitempty"`

	// EstReads is the estimated cost in vector-read currency: the chosen
	// model's estimate at a leaf (+Inf for fallback routing), the sum of
	// child estimates at a combinator.
	EstReads jsonFloat `json:"est_reads"`

	// Analyze-only fields. Stats is the subtree's iostat delta, so the
	// root's Stats equals the evaluation's returned total exactly.
	Analyzed    bool         `json:"analyzed,omitempty"`
	ActReads    jsonFloat    `json:"act_reads,omitempty"`
	Stats       iostat.Stats `json:"stats"`
	Rows        int          `json:"rows,omitempty"`
	ElapsedNS   int64        `json:"elapsed_ns,omitempty"`
	Misestimate bool         `json:"misestimate,omitempty"`
	// ExcessVectors is the leaf's vector reads beyond the Theorem
	// 2.2/2.3 theoretical minimum for its selection width (see
	// LeafIndex.TheoreticalMinVectors); 0 on combinators and non-EBI
	// paths.
	ExcessVectors int `json:"excess_vectors,omitempty"`

	// Resource attribution, captured by EXPLAIN ANALYZE over the node's
	// evaluation window with obs.TakeResources semantics: thread-CPU
	// time and process heap allocation (exact for a single query, an
	// upper bound under concurrent load). A combinator's window covers
	// its children, so the root's numbers are the whole evaluation's.
	CPUNanos     int64  `json:"cpu_ns,omitempty"`
	AllocBytes   uint64 `json:"alloc_bytes,omitempty"`
	AllocObjects uint64 `json:"allocs,omitempty"`
	// PageHits/PageMisses are the buffer-cache page touches a leaf's
	// evaluation charged (paged access paths only).
	PageHits   int `json:"page_hits,omitempty"`
	PageMisses int `json:"page_misses,omitempty"`

	Children []*PlanNode `json:"children,omitempty"`
}

// Walk visits the node and its subtree in depth-first order.
func (n *PlanNode) Walk(fn func(*PlanNode)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Plan is an explain tree with its header: the predicate rendering,
// whether actuals are attached, and — when analyzed — the evaluation's
// total iostat.Stats (identical to the root node's Stats) and wall time.
type Plan struct {
	Query     string       `json:"query"`
	Analyzed  bool         `json:"analyzed"`
	Root      *PlanNode    `json:"root"`
	Stats     iostat.Stats `json:"stats"`
	ElapsedNS int64        `json:"elapsed_ns,omitempty"`

	// Evaluation-wide resource totals (EXPLAIN ANALYZE only) — identical
	// to the root node's CPU/alloc attribution.
	CPUNanos     int64  `json:"cpu_ns,omitempty"`
	AllocBytes   uint64 `json:"alloc_bytes,omitempty"`
	AllocObjects uint64 `json:"allocs,omitempty"`
}

// Misestimated reports whether any leaf drifted >2x between estimated
// and actual cost.
func (p *Plan) Misestimated() bool {
	var mis bool
	p.Root.Walk(func(n *PlanNode) { mis = mis || n.Misestimate })
	return mis
}

// JSON renders the plan as indented JSON.
func (p *Plan) JSON() ([]byte, error) { return json.MarshalIndent(p, "", "  ") }

// Text renders the plan as a stable tree:
//
//	EXPLAIN ANALYZE (v IN {1,2} AND 0 <= q <= 9)
//	AND est=5 actual=4 rows=12 [vectors=4 words=128 ops=1 rows=0 nodes=0] time=112µs
//	├─ leaf v in δ=2 via ebi est=4 actual=3 rows=30 [...] time=61µs
//	└─ leaf q range δ=10 via simple est=1 actual=10 rows=40 [...] time=48µs MISESTIMATE(>2x)
func (p *Plan) Text() string {
	var b strings.Builder
	if p.Analyzed {
		b.WriteString("EXPLAIN ANALYZE ")
	} else {
		b.WriteString("EXPLAIN ")
	}
	b.WriteString(p.Query)
	b.WriteByte('\n')
	p.Root.writeText(&b, "", "")
	if p.Analyzed {
		fmt.Fprintf(&b, "total: %s time=%s\n",
			p.Stats, time.Duration(p.ElapsedNS).Round(time.Microsecond))
	}
	return b.String()
}

func (n *PlanNode) writeText(b *strings.Builder, prefix, childPrefix string) {
	b.WriteString(prefix)
	b.WriteString(n.line())
	b.WriteByte('\n')
	for i, c := range n.Children {
		if i == len(n.Children)-1 {
			c.writeText(b, childPrefix+"└─ ", childPrefix+"   ")
		} else {
			c.writeText(b, childPrefix+"├─ ", childPrefix+"│  ")
		}
	}
}

func (n *PlanNode) line() string {
	var s string
	if n.Kind == KindLeaf {
		s = fmt.Sprintf("leaf %s %s δ=%d via %s est=%.4g", n.Column, n.Op, n.Delta, n.Path, float64(n.EstReads))
		if n.Parallel > 1 {
			s += fmt.Sprintf(" par=%d", n.Parallel)
		}
		if n.Fused {
			s += " fused"
		}
	} else {
		s = fmt.Sprintf("%s est=%.4g", strings.ToUpper(n.Kind), float64(n.EstReads))
	}
	if !n.Analyzed {
		return s
	}
	s += fmt.Sprintf(" actual=%.4g rows=%d", float64(n.ActReads), n.Rows)
	if !n.Stats.IsZero() {
		s += fmt.Sprintf(" [%s]", n.Stats)
	}
	s += fmt.Sprintf(" time=%s", time.Duration(n.ElapsedNS).Round(time.Microsecond))
	if n.CPUNanos > 0 {
		s += fmt.Sprintf(" cpu=%s", time.Duration(n.CPUNanos).Round(time.Microsecond))
	} else if !obs.CPUTimeSupported {
		// Off linux the per-thread clock is unavailable and every CPU
		// figure is zero; say so instead of rendering a misleading 0.
		s += " cpu=n/a"
	}
	if n.AllocBytes > 0 {
		s += fmt.Sprintf(" alloc=%dB/%d", n.AllocBytes, n.AllocObjects)
	}
	if n.PageHits > 0 || n.PageMisses > 0 {
		s += fmt.Sprintf(" pages=%dh/%dm", n.PageHits, n.PageMisses)
	}
	if n.Misestimate {
		s += " MISESTIMATE(>2x)"
	}
	return s
}

// Explain plans the predicate without executing it: every leaf is routed
// through the cost models exactly as Eval would route it, and the tree
// carries the estimated vector reads per node. Fallback-on-ErrUnsupported
// cannot be predicted without executing, so a leaf whose registered path
// would refuse the operation at run time still shows that path here.
func (pl *Planner) Explain(p Predicate) (*Plan, error) {
	root, err := pl.explain(p, nil)
	if err != nil {
		return nil, err
	}
	return &Plan{Query: p.String(), Root: root}, nil
}

// explain builds the estimate-only tree, appending each leaf's routing
// to routes (in DFS preorder) when routes is non-nil.
func (pl *Planner) explain(p Predicate, routes *[]route) (*PlanNode, error) {
	if col, op, delta, ok := leafShape(p); ok {
		path, cost := pl.choose(col, op, delta)
		n := &PlanNode{
			Kind: KindLeaf, Pred: p.String(),
			Column: col, Op: op.String(), Delta: delta,
			Path: "fallback", EstReads: jsonFloat(cost),
		}
		if path != nil {
			n.Path = path.Name
			n.Fused, _ = leafFacts(path.Index, op, delta, 0)
			if deg := pl.parallelDegree(path); deg > 1 {
				n.Parallel = deg
			}
		}
		if routes != nil {
			*routes = append(*routes, route{path: path, cost: cost})
		}
		return n, nil
	}
	kind, children, err := combinatorShape(p)
	if err != nil {
		return nil, err
	}
	n := &PlanNode{Kind: kind, Pred: p.String()}
	for i := 0; i < children; i++ {
		cn, err := pl.explain(childPred(p, i), routes)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, cn)
		n.EstReads += cn.EstReads
	}
	return n, nil
}

// ExplainAnalyze plans and executes the predicate, returning the row set
// and the analyzed plan: per node, estimated vs actual cost, the
// subtree's iostat.Stats delta, qualifying rows, wall time, CPU time,
// heap allocation and (for page-backed paths) buffer-cache traffic. The
// root's Stats equals the evaluation's total cost exactly.
func (pl *Planner) ExplainAnalyze(p Predicate) (*bitvec.Vector, *Plan, error) {
	return pl.ExplainAnalyzeContext(context.Background(), p)
}

// ExplainAnalyzeContext is ExplainAnalyze with trace propagation; when
// telemetry is enabled it records an "ebi.plan.explain" span (with one
// child span per leaf), leaves an exemplar on the latency histogram's
// sample bucket, and routes the analyzed plan through the slow-query
// log like any other query.
func (pl *Planner) ExplainAnalyzeContext(ctx context.Context, p Predicate) (*bitvec.Vector, *Plan, error) {
	r := run{ex: pl.ex, pl: pl, analyze: true, resources: true}
	return r.query(ctx, "ebi.plan.explain", "", p, "", nil)
}

// observeSlow routes one analyzed evaluation through the slow-query log
// and the structured logger. Captures happen when the wall time crosses
// the log's latency threshold or any leaf was misestimated >2x; the full
// analyzed plan rides along.
func observeSlow(plan *Plan) {
	if plan == nil || !obs.On() {
		return
	}
	mis := plan.Misestimated()
	d := time.Duration(plan.ElapsedNS)
	sl := obs.DefaultSlowLog()
	if !sl.ShouldCapture(d, mis) {
		return
	}
	overLatency := sl.LatencyThreshold() > 0 && d >= sl.LatencyThreshold()
	reason := "latency"
	switch {
	case mis && overLatency:
		reason = "latency+misestimate"
	case mis:
		reason = "misestimate"
	}
	par, fused := planEngineFlags(plan)
	sl.Record(obs.SlowQuery{
		Time:          time.Now(),
		Query:         plan.Query,
		DurationNS:    plan.ElapsedNS,
		Stats:         plan.Stats,
		Reason:        reason,
		Par:           par,
		Fused:         fused,
		ExcessVectors: planExcess(plan),
		Plan:          plan,
	})
	lg := obs.DefaultLogger()
	if lg.Enabled(obs.LevelWarn) {
		lg.Warn("slow query",
			obs.Str("query", plan.Query),
			obs.Dur("elapsed", d),
			obs.Str("reason", reason),
			obs.Int("vectors_read", int64(plan.Stats.VectorsRead)),
			obs.Int("bool_ops", int64(plan.Stats.BoolOps)),
			obs.Int("rows_scanned", int64(plan.Stats.RowsScanned)),
		)
	}
}

// planExcess sums the leaves' excess vector reads — the query's total
// encoding-inefficiency for the slow-log annotation.
func planExcess(plan *Plan) int {
	total := 0
	plan.Root.Walk(func(n *PlanNode) { total += n.ExcessVectors })
	return total
}

// planEngineFlags summarizes which engine paths a plan's leaves used: the
// highest segmented-execution degree (0 when every leaf ran sequential)
// and whether any leaf evaluated through the fused kernel.
func planEngineFlags(plan *Plan) (par int, fused bool) {
	plan.Root.Walk(func(n *PlanNode) {
		if n.Kind != KindLeaf {
			return
		}
		if n.Parallel > par {
			par = n.Parallel
		}
		fused = fused || n.Fused
	})
	return par, fused
}

// observeSlowNoPlan is observeSlow for plain Executor evaluations, which
// have no plan tree: latency-threshold capture only.
func observeSlowNoPlan(p Predicate, st iostat.Stats, d time.Duration) {
	if !obs.On() || p == nil {
		return
	}
	sl := obs.DefaultSlowLog()
	if !sl.ShouldCapture(d, false) {
		return
	}
	q := p.String()
	sl.Record(obs.SlowQuery{
		Time: time.Now(), Query: q, DurationNS: d.Nanoseconds(),
		Stats: st, Reason: "latency",
	})
	lg := obs.DefaultLogger()
	if lg.Enabled(obs.LevelWarn) {
		lg.Warn("slow query",
			obs.Str("query", q),
			obs.Dur("elapsed", d),
			obs.Str("reason", "latency"),
			obs.Int("vectors_read", int64(st.VectorsRead)),
		)
	}
}
