package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOrderedMinMax(t *testing.T) {
	col := []int{105, 101, 103, 105, 106, 102, 104}
	oi, err := BuildOrdered(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := oi.Range(102, 105)
	max, ok, st := oi.Max(sel)
	if !ok || max != 105 {
		t.Fatalf("Max = %d,%v", max, ok)
	}
	if st.VectorsRead == 0 {
		t.Fatal("Max should read vectors")
	}
	min, ok, _ := oi.Min(sel)
	if !ok || min != 102 {
		t.Fatalf("Min = %d,%v", min, ok)
	}
	// Empty selection.
	empty, _ := oi.Range(999, 1000)
	if _, ok, _ := oi.Max(empty); ok {
		t.Fatal("Max over empty selection should fail")
	}
	if _, ok, _ := oi.Min(empty); ok {
		t.Fatal("Min over empty selection should fail")
	}
}

func TestOrderedMinMaxSkipsVoidAndNull(t *testing.T) {
	col := []int{5, 9, 1, 7}
	oi, err := BuildOrdered(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSynced(oi.Index())
	if err := s.Delete(1); err != nil { // removes the 9
		t.Fatal(err)
	}
	if err := s.AppendNull(); err != nil {
		t.Fatal(err)
	}
	if oi, err = OrderedFrom(snapshot(s)); err != nil {
		t.Fatal(err)
	}
	all := oi.Index().vectors[0].Clone()
	all.Fill()
	max, ok, _ := oi.Max(all)
	if !ok || max != 7 {
		t.Fatalf("Max = %d,%v, want 7 (9 was deleted)", max, ok)
	}
	min, ok, _ := oi.Min(all)
	if !ok || min != 1 {
		t.Fatalf("Min = %d,%v", min, ok)
	}
}

func TestTopK(t *testing.T) {
	col := []int{5, 9, 1, 7, 9, 5, 3}
	oi, err := BuildOrdered(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	all, _ := oi.Range(0, 100)
	top, _ := oi.TopK(all, 3)
	want := []int{9, 7, 5}
	if len(top) != 3 {
		t.Fatalf("TopK = %v", top)
	}
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("TopK = %v, want %v", top, want)
		}
	}
	// Asking for more than exist returns all distinct values.
	top, _ = oi.TopK(all, 99)
	if len(top) != 5 {
		t.Fatalf("TopK(99) = %v, want 5 distinct values", top)
	}
}

// Property: Min/Max agree with scanning the column over random
// selections, including after deletions.
func TestPropOrderedMinMaxMatchScan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		m := 2 + r.Intn(50)
		col := make([]int, n)
		for i := range col {
			col[i] = r.Intn(m)
		}
		oi, err := BuildOrdered(col, nil, nil)
		if err != nil {
			return false
		}
		s := NewSynced(oi.Index())
		deleted := map[int]bool{}
		for d := 0; d < n/10; d++ {
			row := r.Intn(n)
			if s.Delete(row) != nil {
				return false
			}
			deleted[row] = true
		}
		if oi, err = OrderedFrom(snapshot(s)); err != nil {
			return false
		}
		lo, hi := r.Intn(m), r.Intn(m)
		if lo > hi {
			lo, hi = hi, lo
		}
		sel, _ := oi.Range(lo, hi)
		gotMax, okMax, _ := oi.Max(sel)
		gotMin, okMin, _ := oi.Min(sel)
		wantMax, wantMin, any := -1, 1<<30, false
		for i, v := range col {
			if deleted[i] || v < lo || v > hi {
				continue
			}
			any = true
			if v > wantMax {
				wantMax = v
			}
			if v < wantMin {
				wantMin = v
			}
		}
		if !any {
			return !okMax && !okMin
		}
		return okMax && okMin && gotMax == wantMax && gotMin == wantMin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
