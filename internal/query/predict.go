package query

import (
	"context"

	"repro/internal/bitvec"
	"repro/internal/iostat"
	"repro/internal/table"
)

// Analytic whole-query stats prediction for the audit plane. A leaf's
// prediction mirrors the adapter rewrite that evaluated it (Eq over NULL
// becomes IsNull, int Range becomes an IN-list over the mapped domain,
// NULL cells drop out of IN-lists), so a predicted iostat.Stats is the
// Theorem 2.2/2.3 accounting of exactly the retrieval functions the
// engine compiled — any divergence from the measured stats means the
// execution changed, not the workload. Access paths without an analytic
// model (compressed, bit-sliced, B-tree and projection shapes, and the
// ordered comparator's Range) return ok=false and the conformance check
// for that query is skipped, never guessed.

// predictFold mixes a leaf stamp into a whole-query basis stamp
// (order-dependent FNV-style fold, so leaf order matters like the plan
// does).
func predictFold(gen, leaf uint64) uint64 {
	return (gen ^ leaf) * 1099511628211
}

// predictWalk mirrors eval's DFS: leaves resolve through leafFn in
// preorder (the order choices are recorded in), combinators charge the
// BoolOps eval does (combineOps).
func predictWalk(p Predicate, st *iostat.Stats, gen *uint64,
	leafFn func(leaf Predicate, col string) (iostat.Stats, uint64, bool)) bool {
	if col, _, _, ok := leafShape(p); ok {
		s, g, ok := leafFn(p, col)
		if !ok {
			return false
		}
		st.Add(s)
		*gen = predictFold(*gen, g)
		return true
	}
	kind, children, err := combinatorShape(p)
	if err != nil {
		return false
	}
	for i := 0; i < children; i++ {
		if !predictWalk(childPred(p, i), st, gen, leafFn) {
			return false
		}
	}
	st.BoolOps += combineOps(kind, children)
	return true
}

// predictResolve turns a registered ColumnIndex (or its absence — a
// scan) into a leaf prediction. A scan's accounting is the table length;
// its basis stamp likewise.
func predictResolve(ix ColumnIndex, registered bool, tab *table.Table, leaf Predicate) (iostat.Stats, uint64, bool) {
	if !registered {
		n := tab.Len()
		return iostat.Stats{RowsScanned: n}, uint64(n), true
	}
	li, ok := asLeaf(ix)
	if !ok {
		return iostat.Stats{}, 0, false
	}
	return li.PredictLeaf(leaf)
}

// PredictStats returns the analytic Stats an Eval of p through this
// executor would report, plus a basis stamp, or ok=false when some leaf
// has no analytic model.
func (e *Executor) PredictStats(p Predicate) (iostat.Stats, uint64, bool) {
	var st iostat.Stats
	var gen uint64
	ok := predictWalk(p, &st, &gen, func(leaf Predicate, col string) (iostat.Stats, uint64, bool) {
		ix, registered := e.idx[col]
		return predictResolve(ix, registered, e.tab, leaf)
	})
	if !ok {
		return iostat.Stats{}, 0, false
	}
	return st, gen, true
}

// PredictStatsForRun returns the analytic Stats for a planner (or
// prepared) execution that recorded the given routing decisions: leaf i
// resolves through choices[i].Path — a named access path, or "fallback"
// for the executor's resolution. ok=false when the plan shape and the
// choice list disagree (defensive: never guess) or some routed path has
// no analytic model.
func (pl *Planner) PredictStatsForRun(p Predicate, choices []Choice) (iostat.Stats, uint64, bool) {
	i := 0
	var st iostat.Stats
	var gen uint64
	ok := predictWalk(p, &st, &gen, func(leaf Predicate, col string) (iostat.Stats, uint64, bool) {
		if i >= len(choices) || choices[i].Column != col {
			return iostat.Stats{}, 0, false
		}
		ch := choices[i]
		i++
		if ch.Path == "fallback" {
			ix, registered := pl.ex.idx[col]
			return predictResolve(ix, registered, pl.ex.tab, leaf)
		}
		for j := range pl.paths[col] {
			if pl.paths[col][j].Name == ch.Path {
				return predictResolve(pl.paths[col][j].Index, true, pl.ex.tab, leaf)
			}
		}
		return iostat.Stats{}, 0, false
	})
	if !ok || i != len(choices) {
		return iostat.Stats{}, 0, false
	}
	return st, gen, true
}

// EvalForAudit evaluates p outside the query path's telemetry: no query
// counters, no spans, no slow-log capture, and — critically — no audit
// sampling, so the audit plane's own shadow and confirmation re-runs can
// never recurse into the sampler.
func (e *Executor) EvalForAudit(p Predicate) (*bitvec.Vector, iostat.Stats, error) {
	r := run{ex: e}
	rows, _, err := r.eval(context.Background(), p, nil)
	return rows, r.st, err
}

// EvalForAudit is the planner variant of Executor.EvalForAudit; routing
// runs fresh (the confirmation re-run cares about the engine's current
// behavior, not the recorded plan).
func (pl *Planner) EvalForAudit(p Predicate) (*bitvec.Vector, iostat.Stats, []Choice, error) {
	r := run{ex: pl.ex, pl: pl}
	rows, _, err := r.eval(context.Background(), p, nil)
	return rows, r.st, r.choices, err
}
