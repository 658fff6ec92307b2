package main

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/table"
)

func TestMirrorCheck(t *testing.T) {
	p := query.Eq{Col: "product", Val: table.IntCell(3)}
	if err := mirrorCheck(p, 1, 0); err != nil {
		t.Errorf("with telemetry off there is nothing to compare, got %v", err)
	}
	obs.Enable()
	defer obs.Disable()
	if err := mirrorCheck(p, 1, 1); err != nil {
		t.Errorf("equal misses: %v", err)
	}
	if err := mirrorCheck(p, 1, 0); err == nil {
		t.Error("a mirror miss where the index hit was not reported")
	}
}

// TestCacheMirrorFollowsTheIndex runs traced tpcd-mix (on a small star)
// and serve with telemetry on, so that every query's mirror misses are
// compared with the misses the index's own Eval counted: any
// disagreement is a failed operation.
func TestCacheMirrorFollowsTheIndex(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two traced workloads")
	}
	ro, err := newTPCDMix(1, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	ro.setups = 1
	obs.Enable()
	mix, err := ro.run(options{workload: "tpcd-mix", seed: 1, seconds: 1, trace: true})
	obs.Disable()
	if err != nil {
		t.Fatal(err)
	}
	serve, err := runServe(options{workload: "serve", seed: 1, seconds: 1, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]*outcome{"tpcd-mix": mix, "serve": serve} {
		if out.failed != 0 {
			t.Errorf("%s: %d of %d operations failed, first: %v", name, out.failed, out.attempted, out.firstErr)
		}
		// Both hits and misses happened, so the comparison was not vacuous.
		if r := out.metrics["core.program_cache_hit_ratio"]; r <= 0 || r >= 1 {
			t.Errorf("%s: program cache hit ratio %v, want strictly between 0 and 1", name, r)
		}
	}
}
