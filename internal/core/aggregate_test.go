package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func intLess(a, b int) bool { return a < b }

func TestHistogramAndCounts(t *testing.T) {
	col := []int{5, 5, 7, 9, 7, 5}
	ix, err := Build(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	all, _ := ix.Existing()
	counts, nulls := ix.Histogram(all)
	if nulls != 0 || counts[5] != 3 || counts[7] != 2 || counts[9] != 1 {
		t.Fatalf("Histogram = %v nulls=%d", counts, nulls)
	}
	if ix.CountDistinct(all) != 3 {
		t.Fatalf("CountDistinct = %d", ix.CountDistinct(all))
	}
	s := NewSynced(ix)
	_ = s.Delete(0)
	_ = s.AppendNull()
	ix = snapshot(s)
	all, _ = ix.Existing()
	counts, _ = ix.Histogram(all)
	if counts[5] != 2 {
		t.Fatalf("after delete counts[5] = %d, want 2", counts[5])
	}
	// Histogram over a vector that includes the NULL row reports it.
	allRows := all.Clone()
	allRows.Fill()
	_, nulls = ix.Histogram(allRows)
	if nulls != 1 {
		t.Fatalf("nulls = %d, want 1", nulls)
	}
}

func TestSumAverage(t *testing.T) {
	col := []int{2, 4, 4, 10}
	ix, _ := Build(col, nil, nil)
	all, _ := ix.Existing()
	if got := Sum(ix, all, func(v int) float64 { return float64(v) }); got != 20 {
		t.Fatalf("Sum = %v, want 20", got)
	}
	avg, n := Average(ix, all, func(v int) float64 { return float64(v) })
	if avg != 5 || n != 4 {
		t.Fatalf("Average = %v over %d", avg, n)
	}
	empty, _ := ix.In(nil)
	if avg, n := Average(ix, empty, func(v int) float64 { return float64(v) }); avg != 0 || n != 0 {
		t.Fatal("Average over empty selection should be 0,0")
	}
}

func TestMedianNTile(t *testing.T) {
	col := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	ix, _ := Build(col, nil, nil)
	all, _ := ix.Existing()
	med, ok := Median(ix, all, intLess)
	if !ok || med != 5 {
		t.Fatalf("Median = %d,%v, want 5 (lower median)", med, ok)
	}
	quartiles := NTile(ix, all, 4, intLess)
	if len(quartiles) != 3 {
		t.Fatalf("quartiles = %v", quartiles)
	}
	want := []int{3, 5, 8} // lower-interpolated 25/50/75%
	for i := range want {
		if quartiles[i] != want[i] {
			t.Fatalf("quartiles = %v, want %v", quartiles, want)
		}
	}
	if NTile(ix, all, 1, intLess) != nil {
		t.Fatal("NTile(n<2) should be nil")
	}
	empty, _ := ix.In(nil)
	if _, ok := Median(ix, empty, intLess); ok {
		t.Fatal("Median of empty selection should fail")
	}
}

func TestMedianSkewed(t *testing.T) {
	col := []int{1, 1, 1, 1, 1, 1, 9, 10, 11}
	ix, _ := Build(col, nil, nil)
	all, _ := ix.Existing()
	med, ok := Median(ix, all, intLess)
	if !ok || med != 1 {
		t.Fatalf("Median = %d, want 1", med)
	}
}

// Property: Sum/Median computed on the index agree with direct scans.
func TestPropAggregatesMatchScan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		col := make([]int, n)
		for i := range col {
			col[i] = r.Intn(30)
		}
		ix, err := Build(col, nil, nil)
		if err != nil {
			return false
		}
		lo, hi := r.Intn(30), r.Intn(30)
		if lo > hi {
			lo, hi = hi, lo
		}
		var vals []int
		for v := lo; v <= hi; v++ {
			vals = append(vals, v)
		}
		rows, _ := ix.In(vals)
		got := Sum(ix, rows, func(v int) float64 { return float64(v) })
		want := 0.0
		var selected []int
		for _, x := range col {
			if x >= lo && x <= hi {
				want += float64(x)
				selected = append(selected, x)
			}
		}
		if got != want {
			return false
		}
		med, ok := Median(ix, rows, intLess)
		if len(selected) == 0 {
			return !ok
		}
		// Lower median: the ceil(len/2)-th smallest.
		sortInts(selected)
		return ok && med == selected[(len(selected)-1)/2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Property: HistogramVectors agrees with the row-decoding Histogram.
func TestPropHistogramVectorsMatchesDecode(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(250)
		col := make([]int, n)
		isNull := make([]bool, n)
		for i := range col {
			col[i] = r.Intn(12)
			isNull[i] = r.Intn(10) == 0
		}
		s, err := BuildSynced(col, isNull, nil)
		if err != nil {
			return false
		}
		for d := 0; d < n/10; d++ {
			if s.Delete(r.Intn(n)) != nil {
				return false
			}
		}
		ix := snapshot(s)
		var sel []int
		for v := 0; v < 12; v++ {
			if r.Intn(2) == 0 {
				sel = append(sel, v)
			}
		}
		rows, _ := ix.In(sel)
		// Include some NULL rows in the selection vector to exercise the
		// null-count path.
		nulls, _ := ix.IsNull()
		rows.Or(nulls)
		a, an := ix.Histogram(rows)
		b, bn := ix.HistogramVectors(rows)
		if an != bn || len(a) != len(b) {
			return false
		}
		for v, c := range a {
			if b[v] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramVectorsEmptyAndNoNull(t *testing.T) {
	ix, _ := Build([]int{1, 2, 3}, nil, nil)
	empty, _ := ix.In(nil)
	counts, nulls := ix.HistogramVectors(empty)
	if len(counts) != 0 || nulls != 0 {
		t.Fatalf("empty selection: %v %d", counts, nulls)
	}
}
