package query

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/bitvec"
	"repro/internal/iostat"
	"repro/internal/obs"
)

// run is one evaluation of a predicate tree. The executor, the planner,
// EXPLAIN ANALYZE and prepared queries all evaluate through it — one
// And/Or/Not recursion (eval) and one leaf routine (leaf) — and differ
// only in its inputs.
type run struct {
	ex *Executor
	// pl routes leaves through the planner's access paths and records a
	// Choice and a leaf span per leaf; nil resolves every leaf through the
	// executor (its Use-registered index or a column scan).
	pl *Planner
	// routes is a prepared query's frozen routing, one per leaf in DFS
	// preorder; nil routes every leaf afresh through the cost models.
	routes []route
	next   int
	// analyze makes eval record per-node actuals into plan nodes: fresh
	// ones, or the prepared plan's nodes handed in at the root.
	analyze bool
	// resources adds CPU-time and heap-allocation windows to the actuals.
	resources bool

	st      iostat.Stats
	choices []Choice
}

// route is one prepared leaf's frozen routing decision.
type route struct {
	path    *AccessPath // nil = executor fallback
	cost    float64
	misSeen bool // misestimate already counted
}

// query runs r as one top-level planner evaluation under a span named
// name: the family pprof label (family, or p's key when empty), the walk,
// the span's routing attributes, the query counters, the slow-query log
// for a freshly built plan tree, the audit hook (source "" skips it) and
// the end-to-end latency histogram, whose bucket keeps an exemplar
// pointing back at this trace. root is a prepared plan's tree to refresh
// with this run's actuals, or nil. The returned plan is nil unless the
// run analyzed a fresh tree.
func (r *run) query(ctx context.Context, name, source string, p Predicate, family string, root *PlanNode) (*bitvec.Vector, *Plan, error) {
	if r.resources {
		// The thread CPU clock reads this evaluation's time only while the
		// goroutine stays on one OS thread; pinned, every node's window
		// nests inside its parent's.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	t0 := time.Now()
	ctx, sp := obs.StartSpan(ctx, name)
	fresh := root == nil
	var rows *bitvec.Vector
	var err error
	withFamily(ctx, family, p, func(ctx context.Context) {
		rows, root, err = r.eval(ctx, p, root)
	})
	if sp != nil {
		all := make([]string, len(r.choices))
		var mis []string
		for i, c := range r.choices {
			if all[i] = c.String(); c.Misestimated() {
				mis = append(mis, all[i])
			}
		}
		sp.SetAttr("choices", all)
		if len(mis) > 0 {
			sp.SetAttr("misestimates", mis)
		}
	}
	finishQuery(sp, p, r.st, err, sumExcess(r.choices))
	var plan *Plan
	if err == nil && fresh && root != nil {
		plan = &Plan{
			Query: p.String(), Analyzed: true, Root: root,
			Stats: r.st, ElapsedNS: time.Since(t0).Nanoseconds(),
			CPUNanos: root.CPUNanos, AllocBytes: root.AllocBytes, AllocObjects: root.AllocObjects,
		}
		observeSlow(plan)
	}
	if source != "" {
		r.pl.auditObserve(source, p, rows, r.st, r.choices, sp, err)
	}
	hQueryEvalSeconds.ObserveSpan(time.Since(t0).Seconds(), sp)
	return rows, plan, err
}

// eval is the one And/Or/Not recursion. While the run analyzes, n is p's
// plan node (nil builds a fresh one) and eval returns it filled with the
// subtree's actuals: its iostat delta, actual cost, qualifying rows, wall
// time and — with resources — CPU time and heap allocation. A node's
// window covers its children, so the root's numbers are the whole
// evaluation's without a separate summation pass.
func (r *run) eval(ctx context.Context, p Predicate, n *PlanNode) (*bitvec.Vector, *PlanNode, error) {
	var t0 time.Time
	var r0 obs.Resources
	if r.analyze {
		if n == nil {
			n = &PlanNode{Pred: p.String()}
		}
		t0 = time.Now()
		if r.resources {
			r0 = obs.TakeResources()
		}
	}
	var rows *bitvec.Vector
	if _, _, _, ok := leafShape(p); ok {
		var err error
		if rows, err = r.leaf(ctx, p, n); err != nil {
			return nil, nil, err
		}
	} else {
		kind, children, err := combinatorShape(p)
		if err != nil {
			return nil, nil, err
		}
		before := r.st
		var est jsonFloat
		for i := 0; i < children; i++ {
			var cn *PlanNode
			if n != nil && i < len(n.Children) {
				cn = n.Children[i]
			}
			c, cn, err := r.eval(ctx, childPred(p, i), cn)
			if err != nil {
				return nil, nil, err
			}
			if n != nil {
				if i == len(n.Children) {
					n.Children = append(n.Children, cn)
				}
				est += cn.EstReads
			}
			switch {
			case i == 0:
				rows = c
			case kind == KindAnd:
				rows.And(c)
			default:
				rows.Or(c)
			}
		}
		if kind == KindNot {
			rows = rows.Not()
		}
		r.st.BoolOps += combineOps(kind, children)
		if n != nil {
			n.Kind, n.EstReads = kind, est
			n.Stats = r.st.Sub(before)
			n.ActReads = jsonFloat(actualCost(n.Stats))
		}
	}
	if n != nil {
		n.Analyzed = true
		n.Rows = rows.Count()
		n.ElapsedNS = time.Since(t0).Nanoseconds()
		if r.resources {
			res := obs.TakeResources().Sub(r0)
			n.CPUNanos, n.AllocBytes, n.AllocObjects = res.CPUNanos, res.AllocBytes, res.AllocObjects
		}
	}
	return rows, n, nil
}

// leaf is the one leaf routine: route the leaf (a prepared query's frozen
// route, or the cheapest registered path), evaluate it on that path — at
// the parallel gate's degree, sequentially when the index refuses that —
// fall back to the executor (its index or a column scan) when there is
// no path or the path refuses the operation, and record the Choice.
// Planner leaves run under an "ebi.plan.leaf" span, so per-leaf wall
// time, CPU time and heap allocation appear in the query's trace tree,
// and every leaf runs under "leaf" pprof labels.
func (r *run) leaf(ctx context.Context, p Predicate, n *PlanNode) (*bitvec.Vector, error) {
	col, op, delta, _ := leafShape(p)
	ch := Choice{Column: col, Op: op, Delta: delta}
	var lsp *obs.Span
	var path *AccessPath
	var rt *route
	if r.pl != nil {
		ctx, lsp = obs.StartSpan(ctx, "ebi.plan.leaf")
		if r.routes != nil {
			rt = &r.routes[r.next]
			r.next++
			path, ch.Cost = rt.path, rt.cost
		} else {
			path, ch.Cost = r.pl.choose(col, op, delta)
		}
	}
	var res LeafResult
	err := ErrUnsupported
	if path != nil {
		ch.Path = path.Name
		deg := r.pl.parallelDegree(path)
		var par int
		withLeafLabels(ctx, col, op, deg, func(ctx context.Context) {
			res, par, err = evalLeaf(ctx, path.Index, p, deg)
		})
		if par > 1 {
			ch.Par = par
		}
		if err != nil && err != ErrUnsupported {
			err = fmt.Errorf("query: path %s on %s: %w", path.Name, col, err)
		}
	}
	routed := err == nil
	if err == ErrUnsupported {
		ch.Path, ch.Cost, ch.Par = "fallback", math.Inf(1), 0
		withLeafLabels(ctx, col, op, 1, func(ctx context.Context) {
			res, err = r.ex.resolve(ctx, col, p)
		})
	}
	if err != nil {
		finishLeafSpan(lsp, Choice{Column: col, Op: op, Delta: delta, Path: ch.Path}, res.Stats, err)
		return nil, err
	}
	r.st.Add(res.Stats)
	if r.pl == nil {
		return res.Rows, nil
	}
	ch.Actual = actualCost(res.Stats)
	if routed {
		ch.Fused, ch.Excess = leafFacts(path.Index, op, delta, res.Stats.VectorsRead)
		ch.PageHits, ch.PageMisses = res.Pages.Hits, res.Pages.Misses
	}
	switch {
	case rt != nil:
		// Prepared: routing was counted once, at Prepare; a drifting leaf
		// counts one misestimate however often the plan re-runs.
		if ch.Misestimated() && !rt.misSeen {
			rt.misSeen = true
			mPlannerMisestimates.Inc()
		}
	case routed:
		mPlannerChoices.Inc()
		if ch.Misestimated() {
			mPlannerMisestimates.Inc()
		}
	default:
		mPlannerFallbacks.Inc()
	}
	r.choices = append(r.choices, ch)
	if n != nil {
		n.Kind, n.Column, n.Op, n.Delta, n.Path = KindLeaf, col, op.String(), delta, ch.Path
		n.Parallel, n.Fused, n.EstReads = ch.Par, ch.Fused, jsonFloat(ch.Cost)
		n.ActReads, n.Stats = jsonFloat(ch.Actual), res.Stats
		n.Misestimate, n.ExcessVectors = ch.Misestimated(), ch.Excess
		n.PageHits, n.PageMisses = ch.PageHits, ch.PageMisses
	}
	finishLeafSpan(lsp, ch, res.Stats, nil)
	return res.Rows, nil
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

// combinatorShape maps a combinator predicate to its plan kind and child
// count (childPred reads the children). It holds the rules every walk
// shares — evaluation, EXPLAIN and the stats prediction: AND and OR need
// at least one child, and nil or unknown predicates are errors.
func combinatorShape(p Predicate) (kind string, children int, err error) {
	switch p := p.(type) {
	case And:
		if len(p.Preds) == 0 {
			return "", 0, fmt.Errorf("query: empty AND")
		}
		return KindAnd, len(p.Preds), nil
	case Or:
		if len(p.Preds) == 0 {
			return "", 0, fmt.Errorf("query: empty OR")
		}
		return KindOr, len(p.Preds), nil
	case Not:
		return KindNot, 1, nil
	case nil:
		return "", 0, fmt.Errorf("query: nil predicate")
	default:
		return "", 0, fmt.Errorf("query: unknown predicate %T", p)
	}
}

// childPred returns combinator p's i-th child.
func childPred(p Predicate, i int) Predicate {
	switch p := p.(type) {
	case And:
		return p.Preds[i]
	case Or:
		return p.Preds[i]
	}
	return p.(Not).Pred
}

// combineOps is the BoolOps a combinator of the given kind charges over
// its children: one per child past the first for AND and OR, one for NOT.
func combineOps(kind string, children int) int {
	if kind == KindNot {
		return 1
	}
	return children - 1
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
