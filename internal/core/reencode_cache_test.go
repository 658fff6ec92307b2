package core

import (
	"reflect"
	"testing"

	"repro/internal/boolmin"
	"repro/internal/encoding"
	"repro/internal/obs"
)

// swappedMapping returns a clone of m with the codes of values a and b
// exchanged — the smallest encoding change that silently breaks any
// compiled program cached under the old assignment.
func swappedMapping(t *testing.T, m *encoding.Mapping[string], a, b string) *encoding.Mapping[string] {
	t.Helper()
	nm := m.Clone()
	if err := nm.Swap(a, b); err != nil {
		t.Fatal(err)
	}
	return nm
}

// TestIndexEqCacheInvalidatedOnReencode pins the regression the live
// swap made dangerous: Index.Eq memoizes compiled per-code programs, so
// a re-encoding that reassigns codes must never let the next Eq evaluate
// the OLD code's program against the NEW vectors. A re-encoding publishes
// a new snapshot with a cache of its own; the old snapshot, its warm
// cache and its answers stay as they were.
func TestIndexEqCacheInvalidatedOnReencode(t *testing.T) {
	column := []string{"a", "b", "a", "c", "b", "a"}
	s, err := BuildSynced(column, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	old := snapshot(s)

	// Warm the per-code cache for every value.
	wantA, _ := old.Eq("a")
	wantB, _ := old.Eq("b")
	if wantA.Count() != 3 || wantB.Count() != 2 {
		t.Fatalf("pre-swap counts: a=%d b=%d", wantA.Count(), wantB.Count())
	}

	if err := s.Reencode(swappedMapping(t, s.Mapping(), "a", "b")); err != nil {
		t.Fatal(err)
	}

	for _, ix := range []*Index[string]{snapshot(s), old} {
		gotA, _ := ix.Eq("a")
		gotB, _ := ix.Eq("b")
		if !gotA.Equal(wantA) {
			t.Fatalf("post-swap Eq(a) selects %d rows, want the same %d rows as before", gotA.Count(), wantA.Count())
		}
		if !gotB.Equal(wantB) {
			t.Fatalf("post-swap Eq(b) selects %d rows, want the same %d rows as before", gotB.Count(), wantB.Count())
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	oldA, _ := old.Mapping().CodeOf("a")
	newA, _ := s.Mapping().CodeOf("a")
	if oldA == newA {
		t.Fatal("re-encoding did not reassign a's code")
	}
}

// TestSyncedEqCacheInvalidatedOnLiveReencode is the same regression
// through the epoch path: Synced.Eq serves compiled programs from an
// encoding-generation-keyed cache, and a live Reencode flip must retire
// the whole generation.
func TestSyncedEqCacheInvalidatedOnLiveReencode(t *testing.T) {
	column := []string{"a", "b", "a", "c", "b", "a"}
	s, err := BuildSynced(column, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	wantA, _ := s.Eq("a")
	wantB, _ := s.Eq("b")
	// Second reads come from the warmed program cache.
	againA, _ := s.Eq("a")
	if !againA.Equal(wantA) {
		t.Fatal("warm-cache Eq(a) diverged from the first evaluation")
	}

	if err := s.Reencode(swappedMapping(t, s.Mapping(), "a", "b")); err != nil {
		t.Fatal(err)
	}

	gotA, _ := s.Eq("a")
	gotB, _ := s.Eq("b")
	if !gotA.Equal(wantA) {
		t.Fatalf("post-flip Eq(a) selects %d rows, want %d", gotA.Count(), wantA.Count())
	}
	if !gotB.Equal(wantB) {
		t.Fatalf("post-flip Eq(b) selects %d rows, want %d", gotB.Count(), wantB.Count())
	}
	if got, want := s.Epoch(), uint64(2); got != want {
		t.Fatalf("epoch = %d, want %d", got, want)
	}
}

// TestSyncedPreparedRecompilesAcrossFlip: a prepared selection compiled
// before a live re-encoding must detect the generation change, recompile
// (counted), and select the same rows under the new code assignment.
func TestSyncedPreparedRecompilesAcrossFlip(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	column := []string{"a", "b", "a", "c", "b", "a", "d", "c"}
	s, err := BuildSynced(column, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := s.Prepare([]string{"a", "c"})
	want, _ := p.Eval()
	if want.Count() != 5 {
		t.Fatalf("prepared selects %d rows, want 5", want.Count())
	}

	recompiles := obs.Default().Counter("ebi_core_prepared_recompiles_total", "")
	before := recompiles.Value()

	if err := s.Reencode(swappedMapping(t, s.Mapping(), "a", "d")); err != nil {
		t.Fatal(err)
	}

	got, _ := p.Eval()
	if !got.Equal(want) {
		t.Fatalf("post-flip prepared selects %d rows, want %d", got.Count(), want.Count())
	}
	if recompiles.Value() != before+1 {
		t.Fatalf("prepared recompiles advanced by %d, want 1", recompiles.Value()-before)
	}
	// A second evaluation under the same generation stays cached.
	if again, _ := p.Eval(); !again.Equal(want) {
		t.Fatal("second post-flip evaluation diverged")
	}
	if recompiles.Value() != before+1 {
		t.Fatalf("warm re-run recompiled again (%d total)", recompiles.Value()-before)
	}
}

// sameAsFreshMinimize fails t unless ExprFor, which reads the index's
// per-generation don't-care set, equals Minimize over don't-cares
// recomputed from the mapping, for every subset of the domain.
func sameAsFreshMinimize(t *testing.T, stage string, ix *Index[string]) {
	t.Helper()
	vals := ix.Values()
	fresh := ix.freeValueCodes()
	for sub := 0; sub < 1<<len(vals); sub++ {
		var sel []string
		for i, v := range vals {
			if sub&(1<<i) != 0 {
				sel = append(sel, v)
			}
		}
		got := ix.ExprFor(sel)
		want := boolmin.Minimize(ix.K(), ix.codesOf(sel), fresh)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ExprFor(%v) = %s, Minimize with fresh don't-cares %v = %s", stage, sel, got, fresh, want)
		}
	}
}

// TestDontCaresFollowGeneration pins the per-generation don't-care set:
// each stage reads it (so a stale set would be cached) before the next
// one changes the code space — a widen, a NULL-code allocation, a
// domain expansion into a free code and a re-encoding, on a Synced
// index's published snapshots, both with the tail outstanding and folded
// into a materialized base.
func TestDontCaresFollowGeneration(t *testing.T) {
	nm := encoding.NewMapping[string](3)
	for i, v := range []string{"a", "b", "c", "d", "e"} {
		nm.MustAdd(v, uint32(7-i))
	}
	for _, fold := range []bool{false, true} {
		s, err := BuildSynced([]string{"a", "b", "c"}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		check := func(stage string) {
			t.Helper()
			if fold {
				s.Flush()
				stage = "folded " + stage
			}
			sameAsFreshMinimize(t, stage, s.state.Load().ix)
		}
		check("build")
		for _, step := range []struct {
			stage string
			apply func() error
		}{
			{"widen", func() error { return s.Append("d") }}, // code space full
			{"null code", s.AppendNull},
			{"domain expansion", func() error { return s.Append("e") }}, // reuses a free code
			{"reencode", func() error { return s.Reencode(nm) }},
		} {
			if err := step.apply(); err != nil {
				t.Fatal(err)
			}
			check(step.stage)
		}
	}
}
