package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPreparedMatchesIn(t *testing.T) {
	col := []int{1, 2, 3, 4, 1, 2, 3, 4}
	ix, err := Build(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := ix.Prepare([]int{1, 2})
	direct, stIn := ix.In([]int{1, 2})
	prepared, stP := p.Eval()
	if !prepared.Equal(direct) {
		t.Fatal("Prepared result differs from In")
	}
	if stP.VectorsRead != stIn.VectorsRead || p.AccessCost() != stP.VectorsRead {
		t.Fatalf("costs differ: prepared %d, in %d, AccessCost %d",
			stP.VectorsRead, stIn.VectorsRead, p.AccessCost())
	}
	if p.String() == "" {
		t.Fatal("String empty")
	}
}

func TestPreparedRecompilesAfterExpansion(t *testing.T) {
	ix, err := BuildSynced([]string{"a", "b", "c"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := ix.Prepare([]string{"a", "b"})
	before, _ := p.Eval()
	if before.Count() != 2 {
		t.Fatalf("before expansion: %d rows", before.Count())
	}
	// Domain expansion consumes a free code (shrinking the don't-care
	// set) and may widen the index: both must trigger recompilation.
	for i := 0; i < 10; i++ {
		if err := ix.Append(string(rune('d' + i))); err != nil {
			t.Fatal(err)
		}
	}
	after, st := p.Eval()
	if after.Count() != 2 {
		t.Fatalf("after expansion: %d rows, want 2 (stale expression?)", after.Count())
	}
	if st.VectorsRead > ix.K() {
		t.Fatalf("cost %d exceeds k=%d", st.VectorsRead, ix.K())
	}
	// The new rows must not be selected.
	for row := 3; row < ix.Len(); row++ {
		if after.Get(row) {
			t.Fatalf("expanded row %d wrongly selected", row)
		}
	}
}

// Property: Prepared.Eval equals In at every point in an append/delete
// workload.
func TestPropPreparedTracksIndex(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ix, err := BuildSynced([]int{0, 1, 2, 3}, nil, nil)
		if err != nil {
			return false
		}
		ix.SetFoldThreshold(1 + r.Intn(8))
		sel := []int{0, 2}
		p := ix.Prepare(sel)
		for step := 0; step < 30; step++ {
			switch r.Intn(3) {
			case 0:
				if ix.Append(r.Intn(40)) != nil {
					return false
				}
			case 1:
				_ = ix.Delete(r.Intn(ix.Len()))
			case 2:
				a, _ := p.Eval()
				b, _ := ix.In(sel)
				if !a.Equal(b) {
					return false
				}
			}
		}
		a, _ := p.Eval()
		b, _ := ix.In(sel)
		return a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
