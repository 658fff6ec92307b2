package query

import (
	"context"
	"runtime/pprof"
	"strconv"

	"repro/internal/obs"
)

// Continuous-profiling labels. Every top-level evaluation runs under a
// pprof label set carrying the query's predicate-family key (the same
// normalization /debug/requests and the drift sketch aggregate by), and
// every leaf adds the column/op it is evaluating plus the parallel
// degree when the gate engaged — so a CPU profile scraped from
// /debug/pprof/profile attributes samples to predicate families
// end-to-end, resolvable against the /debug/requests table.
//
// Labels ride the goroutine, so the paged fetch path (same goroutine)
// inherits them for free; pool helper goroutines are persistent and
// inherit nothing, so the leaf's label context is stashed on its span
// (Span.SetLabelCtx) and internal/parallel applies it to each engaged
// helper for the duration of the fork/join.

// withFamily runs fn under a "family" pprof label: family, or p's key
// when family is empty (prepared queries compute theirs once, at
// Prepare). While telemetry is disabled it is a direct call: no label
// set is built and the family key is never computed.
func withFamily(ctx context.Context, family string, p Predicate, fn func(context.Context)) {
	if !obs.On() {
		fn(ctx)
		return
	}
	if family == "" {
		family = FamilyKey(p)
	}
	pprof.Do(ctx, pprof.Labels("family", family), fn)
}

// withLeafLabels runs fn under "leaf" (column/op) — and, when the
// parallel gate picked a degree above one, "par" — pprof labels merged
// onto the evaluation's family label. The labeled context is stashed on
// the context's span so fork/join helpers can adopt the same label set.
func withLeafLabels(ctx context.Context, col string, op Op, deg int, fn func(context.Context)) {
	if !obs.On() {
		fn(ctx)
		return
	}
	ls := []string{"leaf", col + "/" + op.String()}
	if deg > 1 {
		ls = append(ls, "par", strconv.Itoa(deg))
	}
	pprof.Do(ctx, pprof.Labels(ls...), func(ctx context.Context) {
		obs.SpanFromContext(ctx).SetLabelCtx(ctx)
		fn(ctx)
	})
}
