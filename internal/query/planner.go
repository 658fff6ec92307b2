package query

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/bitvec"
	"repro/internal/iostat"
	"repro/internal/obs"
)

// Planner is a cost-based access-path selector. Section 3 of the paper
// establishes when each index wins — simple bitmaps for point selections
// (c_s = 1 vs c_e = k), encoded bitmaps once the selection widens past
// δ ≈ log2 m — and the planner operationalizes exactly that: each column
// may register several access paths with a cost model, and every leaf
// predicate is routed to the cheapest one.
type Planner struct {
	ex    *Executor
	paths map[string][]AccessPath
	par   *ParallelPolicy // nil = sequential-only leaf execution
}

// AccessPath couples an index with its cost model and a display name.
type AccessPath struct {
	Name  string
	Index ColumnIndex
	Model CostModel
}

// Op identifies the leaf operation being costed.
type Op int

// Leaf operations.
const (
	OpEq Op = iota
	OpIn
	OpRange
)

func (op Op) String() string {
	switch op {
	case OpEq:
		return "eq"
	case OpIn:
		return "in"
	case OpRange:
		return "range"
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// CostModel estimates the cost (in the paper's vector-read currency,
// with row scans converted at a fixed exchange rate) of a leaf operation.
// delta is the selection width: 1 for Eq, the list length for In, and the
// value-interval width for Range. Return +Inf for unsupported operations.
type CostModel func(op Op, delta int) float64

// rowCostWeight converts scanned rows into vector-read-equivalents: one
// vector read moves n/64 words, one row scan moves ~1 value; with the
// paper's disk-oriented view a vector read is far cheaper per row covered.
const rowCostWeight = 1.0 / 512

// SimpleBitmapModel prices a simple bitmap index: c_s = δ vector reads.
func SimpleBitmapModel() CostModel {
	return func(op Op, delta int) float64 {
		if delta < 1 {
			return 0
		}
		return float64(delta)
	}
}

// EBIModel prices an encoded bitmap index with k vectors: every selection
// reads at most k vectors (Eq reads k; ranges read at most k after
// reduction; ordered-EBI ranges read at most 2k, amortized here as k+1).
func EBIModel(k int) CostModel {
	return func(op Op, delta int) float64 {
		if delta < 1 {
			return 0
		}
		switch op {
		case OpRange:
			return float64(k) + 1
		default:
			return float64(k)
		}
	}
}

// BSIModel prices a bit-sliced index with k slices: Eq reads k, a range
// reads at most 2k, an IN-list probes per value.
func BSIModel(k int) CostModel {
	return func(op Op, delta int) float64 {
		if delta < 1 {
			return 0
		}
		switch op {
		case OpEq:
			return float64(k)
		case OpIn:
			return float64(delta * k)
		default:
			return float64(2 * k)
		}
	}
}

// BTreeModel prices a value-list B-tree: a descent per probed value plus
// the qualifying rows, charged at the row weight.
func BTreeModel(height, rowsPerValue int) CostModel {
	return func(op Op, delta int) float64 {
		if delta < 1 {
			return 0
		}
		return float64(delta*height) + float64(delta*rowsPerValue)*rowCostWeight
	}
}

// ScanModel prices a full column scan of n rows.
func ScanModel(n int) CostModel {
	return func(Op, int) float64 { return float64(n) * rowCostWeight }
}

// NewPlanner returns a planner over the executor's table. The executor's
// own per-column indexes (registered with Use) remain the fallback when a
// column has no registered paths.
func NewPlanner(ex *Executor) *Planner {
	return &Planner{ex: ex, paths: make(map[string][]AccessPath)}
}

// AddPath registers an access path for a column.
func (pl *Planner) AddPath(col string, p AccessPath) error {
	if p.Index == nil || p.Model == nil {
		return fmt.Errorf("query: access path %q needs an index and a cost model", p.Name)
	}
	pl.paths[col] = append(pl.paths[col], p)
	return nil
}

// Choice records one routing decision for explain-style output. Cost is
// the chosen path's estimate in the model's vector-read currency; Actual
// is what the evaluation really cost in the same currency (vectors plus
// tree nodes plus row scans at rowCostWeight), so estimate-vs-actual
// drift is visible per leaf.
type Choice struct {
	Column string
	Op     Op
	Delta  int
	Path   string
	Cost   float64
	Actual float64
	// Par is the parallelism degree the leaf executed with; 0 or 1 means
	// sequential (gate declined, path not parallel-capable, or parallel
	// execution disabled).
	Par int
	// Fused reports that the chosen path evaluates this operation through
	// the fused single-pass kernel (see FusedIndex). Fallback routings are
	// never fused.
	Fused bool
	// Excess is the leaf's vector reads beyond the Theorem 2.2/2.3
	// theoretical minimum for its selection width — 0 when the path's
	// index implements no MinVectorsIndex or read no avoidable vectors.
	// Deliberately absent from String(), whose rendering is pinned.
	Excess int
	// PageHits/PageMisses are the buffer-cache page touches this leaf's
	// evaluation charged — populated only when the path's index
	// implements PageStatsIndex, and, like Excess, absent from the
	// pinned String() rendering.
	PageHits   int
	PageMisses int
}

// Misestimated reports whether the estimate was off by more than 2x the
// actual cost in either direction. Fallback routings (infinite estimate)
// are never counted; costs under one vector read are clamped to one so
// near-free leaves don't produce spurious ratios.
func (c Choice) Misestimated() bool {
	if math.IsInf(c.Cost, 1) {
		return false
	}
	est, act := math.Max(c.Cost, 1), math.Max(c.Actual, 1)
	return est > 2*act || act > 2*est
}

// String renders the decision for traces and explain output. The
// parallelism and fused suffixes appear only when set, so renderings of
// sequential non-fused decisions are byte-identical to older versions.
func (c Choice) String() string {
	s := fmt.Sprintf("%s %s δ=%d -> %s (est=%.4g actual=%.4g)",
		c.Column, c.Op, c.Delta, c.Path, c.Cost, c.Actual)
	if c.Par > 1 {
		s += fmt.Sprintf(" par=%d", c.Par)
	}
	if c.Fused {
		s += " fused"
	}
	return s
}

// actualCost converts an evaluation's Stats into the cost model's
// currency: vector reads and node visits at weight 1, row scans at
// rowCostWeight.
func actualCost(s iostat.Stats) float64 {
	return float64(s.VectorsRead) + float64(s.NodesRead) + float64(s.RowsScanned)*rowCostWeight
}

// choose returns the cheapest registered path for the leaf, or nil when
// the column has none.
func (pl *Planner) choose(col string, op Op, delta int) (*AccessPath, float64) {
	var best *AccessPath
	bestCost := math.Inf(1)
	for i := range pl.paths[col] {
		p := &pl.paths[col][i]
		if c := p.Model(op, delta); c < bestCost {
			best, bestCost = p, c
		}
	}
	return best, bestCost
}

// Eval plans and evaluates the predicate, returning the row set, the
// accumulated access cost, and the routing decisions taken.
func (pl *Planner) Eval(p Predicate) (*bitvec.Vector, iostat.Stats, []Choice, error) {
	return pl.EvalContext(context.Background(), p)
}

// EvalContext is Eval with trace propagation: when telemetry is enabled
// it records an "ebi.plan.eval" span carrying every routing decision and
// flagging leaves whose cost estimate drifted >2x from the actual cost,
// with one child span per leaf so CPU time and heap allocation roll up
// the plan tree. Enabled evaluations run through the plan-tree builder
// so the slow-query log can capture the full analyzed plan of any query
// over the latency threshold or carrying a misestimated leaf, and the
// evaluation's tail-latency histogram bucket keeps an exemplar pointing
// back at this trace.
func (pl *Planner) EvalContext(ctx context.Context, p Predicate) (*bitvec.Vector, iostat.Stats, []Choice, error) {
	tEval := time.Now()
	var sp *obs.Span
	defer func() { hQueryEvalSeconds.ObserveSpan(time.Since(tEval).Seconds(), sp) }()
	ctx, sp = obs.StartSpan(ctx, "ebi.plan.eval")
	var st iostat.Stats
	var choices []Choice
	var rows *bitvec.Vector
	var err error
	withFamilyPred(ctx, p, func(ctx context.Context) {
		if obs.On() {
			t0 := time.Now()
			var root *PlanNode
			rows, root, err = pl.analyze(ctx, p, &st, &choices)
			if err == nil {
				observeSlow(&Plan{
					Query: p.String(), Analyzed: true, Root: root,
					Stats: st, ElapsedNS: time.Since(t0).Nanoseconds(),
				})
			}
		} else {
			rows, err = pl.eval(ctx, p, &st, &choices)
		}
	})
	if sp != nil {
		sp.SetAttr("choices", choiceStrings(choices))
		if mis := misestimates(choices); len(mis) > 0 {
			sp.SetAttr("misestimates", mis)
		}
	}
	finishQuery(sp, p, st, err, sumExcess(choices))
	pl.auditObserve("planner", p, rows, st, choices, sp, err)
	return rows, st, choices, err
}

func choiceStrings(choices []Choice) []string {
	out := make([]string, len(choices))
	for i, c := range choices {
		out[i] = c.String()
	}
	return out
}

func misestimates(choices []Choice) []string {
	var out []string
	for _, c := range choices {
		if c.Misestimated() {
			out = append(out, c.String())
		}
	}
	return out
}

// leafShape extracts the (column, operation, selection width) triple of a
// leaf predicate; ok is false for combinators.
func leafShape(p Predicate) (col string, op Op, delta int, ok bool) {
	switch p := p.(type) {
	case Eq:
		return p.Col, OpEq, 1, true
	case In:
		return p.Col, OpIn, len(p.Vals), true
	case Range:
		d := int(p.Hi - p.Lo + 1)
		if d < 0 {
			d = 0
		}
		return p.Col, OpRange, d, true
	}
	return "", 0, 0, false
}

// execLeaf evaluates a leaf predicate against one access path's index.
func execLeaf(ix ColumnIndex, p Predicate) (*bitvec.Vector, iostat.Stats, error) {
	switch p := p.(type) {
	case Eq:
		return ix.Eq(p.Val)
	case In:
		return ix.In(p.Vals)
	case Range:
		return ix.Range(p.Lo, p.Hi)
	}
	return nil, iostat.Stats{}, fmt.Errorf("query: %T is not a leaf predicate", p)
}

func (pl *Planner) eval(ctx context.Context, p Predicate, st *iostat.Stats, choices *[]Choice) (*bitvec.Vector, error) {
	switch p := p.(type) {
	case Eq, In, Range:
		rows, ch, err := pl.leafExec(ctx, p, st)
		if err != nil {
			return nil, err
		}
		*choices = append(*choices, ch)
		return rows, nil
	case And:
		if len(p.Preds) == 0 {
			return nil, fmt.Errorf("query: empty AND")
		}
		acc, err := pl.eval(ctx, p.Preds[0], st, choices)
		if err != nil {
			return nil, err
		}
		for _, child := range p.Preds[1:] {
			rows, err := pl.eval(ctx, child, st, choices)
			if err != nil {
				return nil, err
			}
			acc.And(rows)
			st.BoolOps++
		}
		return acc, nil
	case Or:
		if len(p.Preds) == 0 {
			return nil, fmt.Errorf("query: empty OR")
		}
		acc, err := pl.eval(ctx, p.Preds[0], st, choices)
		if err != nil {
			return nil, err
		}
		for _, child := range p.Preds[1:] {
			rows, err := pl.eval(ctx, child, st, choices)
			if err != nil {
				return nil, err
			}
			acc.Or(rows)
			st.BoolOps++
		}
		return acc, nil
	case Not:
		rows, err := pl.eval(ctx, p.Pred, st, choices)
		if err != nil {
			return nil, err
		}
		st.BoolOps++
		return rows.Not(), nil
	case nil:
		return nil, fmt.Errorf("query: nil predicate")
	default:
		return nil, fmt.Errorf("query: unknown predicate %T", p)
	}
}

// execPath evaluates a leaf against one access path, routing through the
// segmented parallel engine when the cost gate picked a degree above one
// (deg, computed by the caller via parallelDegree so it can label the
// evaluation) and the path implements ParallelIndex. A parallel refusal
// (ErrUnsupported from EvalLeafParallel) re-runs the same leaf through the
// path's sequential interface; only a sequential refusal propagates as
// ErrUnsupported to the caller's fallback logic. Returns the degree the
// leaf actually executed with (1 = sequential). The context carries the
// leaf's span, so traced parallel workers and page fetches nest under it.
func (pl *Planner) execPath(ctx context.Context, path *AccessPath, p Predicate, deg int) (*bitvec.Vector, iostat.Stats, int, error) {
	if deg > 1 {
		rows, s, err := path.Index.(ParallelIndex).EvalLeafParallel(p, deg, obs.SpanFromContext(ctx))
		if err == nil {
			return rows, s, deg, nil
		}
		if err != ErrUnsupported {
			return nil, iostat.Stats{}, 0, err
		}
	}
	rows, s, err := execLeafCtx(ctx, path.Index, p)
	return rows, s, 1, err
}

// execLeafCtx is execLeaf with context: an index implementing
// CtxColumnIndex receives ctx so it can attribute its own work (page
// fetches) to the span there.
func execLeafCtx(ctx context.Context, ix ColumnIndex, p Predicate) (*bitvec.Vector, iostat.Stats, error) {
	if ci, ok := ix.(CtxColumnIndex); ok {
		return ci.EvalLeafCtx(ctx, p)
	}
	return execLeaf(ix, p)
}

// leafExec routes one leaf predicate through the cheapest path, falling
// back to the base executor (its Use-registered index or a scan), and
// returns the routing decision taken. When telemetry is enabled each
// leaf runs under its own "ebi.plan.leaf" span, so per-leaf wall time,
// CPU time, and heap allocation appear in the query's trace tree.
func (pl *Planner) leafExec(ctx context.Context, p Predicate, st *iostat.Stats) (*bitvec.Vector, Choice, error) {
	col, op, delta, _ := leafShape(p)
	ctx, lsp := obs.StartSpan(ctx, "ebi.plan.leaf")
	path, cost := pl.choose(col, op, delta)
	if path != nil {
		pageHits, pageMisses := leafPageStats(path.Index)
		deg := pl.parallelDegree(path)
		var rows *bitvec.Vector
		var s iostat.Stats
		var par int
		var err error
		withLeafLabels(ctx, col, op, deg, func(ctx context.Context) {
			rows, s, par, err = pl.execPath(ctx, path, p, deg)
		})
		if err == nil {
			st.Add(s)
			ch := Choice{Column: col, Op: op, Delta: delta, Path: path.Name, Cost: cost, Actual: actualCost(s),
				Fused:  isFused(path.Index, op),
				Excess: leafExcess(path.Index, delta, s.VectorsRead)}
			if par > 1 {
				ch.Par = par
			}
			h1, m1 := leafPageStats(path.Index)
			ch.PageHits, ch.PageMisses = h1-pageHits, m1-pageMisses
			mPlannerChoices.Inc()
			if ch.Misestimated() {
				mPlannerMisestimates.Inc()
			}
			finishLeafSpan(lsp, ch, s, nil)
			return rows, ch, nil
		}
		if err != ErrUnsupported {
			err = fmt.Errorf("query: path %s on %s: %w", path.Name, col, err)
			finishLeafSpan(lsp, Choice{Column: col, Op: op, Delta: delta, Path: path.Name}, iostat.Stats{}, err)
			return nil, Choice{}, err
		}
		// Unsupported despite registration: fall through to the executor.
	}
	// Use the executor's internal entry point so the shared cost counters
	// advance once, at the planner's top level, not per fallback leaf.
	var s iostat.Stats
	rows, err := pl.ex.eval(ctx, p, &s)
	if err != nil {
		finishLeafSpan(lsp, Choice{Column: col, Op: op, Delta: delta, Path: "fallback"}, s, err)
		return nil, Choice{}, err
	}
	st.Add(s)
	mPlannerFallbacks.Inc()
	ch := Choice{Column: col, Op: op, Delta: delta, Path: "fallback", Cost: math.Inf(1), Actual: actualCost(s)}
	finishLeafSpan(lsp, ch, s, nil)
	return rows, ch, nil
}

// leafPageStats reads an index's cumulative buffer-cache counters, or
// zeros when the index has no page cache behind it.
func leafPageStats(ix ColumnIndex) (hits, misses int) {
	if psi, ok := ix.(PageStatsIndex); ok {
		return psi.PageStats()
	}
	return 0, 0
}

// finishLeafSpan closes a leaf's trace span with its routing decision
// and cost delta attached. Nil-safe: lsp is nil while telemetry is off.
func finishLeafSpan(lsp *obs.Span, ch Choice, s iostat.Stats, err error) {
	if lsp == nil {
		return
	}
	lsp.SetAttr("choice", ch.String())
	lsp.SetStats(s)
	lsp.SetError(err)
	lsp.End()
}
