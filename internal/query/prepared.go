package query

import (
	"context"

	"repro/internal/bitvec"
	"repro/internal/iostat"
	"repro/internal/obs"
)

// PreparedQuery is a predicate planned once and executable many times —
// the query-layer analogue of core.Prepared. The access-path routing
// (and therefore the ebi_planner_choices_total / _fallbacks_total
// accounting) happens exactly once, at Prepare time; re-executions reuse
// the bound paths. A >2x estimate-vs-actual misestimate on a leaf is
// counted into ebi_planner_misestimates_total only the first time that
// leaf drifts, so re-running the same defective plan does not inflate
// the counter.
//
// The plan is frozen: paths registered or indexes replaced after Prepare
// are not picked up. A PreparedQuery is not safe for concurrent use.
type PreparedQuery struct {
	pl   *Planner
	pred Predicate
	plan *Plan
	// routes is the frozen routing, one per leaf in DFS preorder.
	routes []route
	// family is the /debug/requests predicate-family key, computed once
	// here so re-executions label their pprof samples without paying the
	// normalization again.
	family string
}

// Prepare plans the predicate once, routing every leaf through the cost
// models, and returns the reusable compiled form.
func (pl *Planner) Prepare(p Predicate) (*PreparedQuery, error) {
	var routes []route
	root, err := pl.explain(p, &routes)
	if err != nil {
		return nil, err
	}
	// Routing happened here, once: advance the routing counters now
	// rather than on every execution.
	for _, rt := range routes {
		if rt.path != nil {
			mPlannerChoices.Inc()
		} else {
			mPlannerFallbacks.Inc()
		}
	}
	return &PreparedQuery{
		pl: pl, pred: p, plan: &Plan{Query: p.String(), Root: root},
		routes: routes, family: FamilyKey(p),
	}, nil
}

// Plan returns the estimate-only plan built at Prepare time. After an
// execution its nodes carry the latest run's actuals.
func (pq *PreparedQuery) Plan() *Plan { return pq.plan }

// Eval executes the prepared plan against the current table and index
// contents.
func (pq *PreparedQuery) Eval() (*bitvec.Vector, iostat.Stats, []Choice, error) {
	return pq.EvalContext(context.Background())
}

// EvalContext is Eval with trace propagation: when telemetry is enabled
// it records an "ebi.plan.prepared" span with one child span per leaf,
// refreshes the plan nodes' resource attribution, and leaves an
// exemplar on the latency histogram's sample bucket. The parallel gate
// is re-checked on every execution — the table may have grown past the
// threshold, or parallelism been toggled, since Prepare — so only the
// routing is frozen, not the degree.
func (pq *PreparedQuery) EvalContext(ctx context.Context) (*bitvec.Vector, iostat.Stats, []Choice, error) {
	// Resource capture costs two runtime/metrics reads plus a clock
	// syscall per node, so prepared re-runs — the hot path — only pay it
	// while telemetry is on (EXPLAIN ANALYZE, by contrast, always pays:
	// it is explicitly a diagnostic).
	r := run{ex: pq.pl.ex, pl: pq.pl, routes: pq.routes, analyze: true, resources: obs.On()}
	rows, _, err := r.query(ctx, "ebi.plan.prepared", "prepared", pq.pred, pq.family, pq.plan.Root)
	return rows, r.st, r.choices, err
}
