package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/encoding"
)

func paperRangePreds() []encoding.Interval {
	return []encoding.Interval{{Lo: 6, Hi: 10}, {Lo: 8, Hi: 12}, {Lo: 10, Hi: 13}, {Lo: 16, Hi: 20}}
}

func TestBuildRangeIndexFigure7(t *testing.T) {
	col := []int64{6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 19}
	ri, err := BuildRangeIndex(col, 6, 20, paperRangePreds(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ri.Partitions()) != 6 {
		t.Fatalf("partitions = %v, want 6", ri.Partitions())
	}
	if ri.K() != 3 {
		t.Fatalf("K = %d, want 3 (ceil(log2 6))", ri.K())
	}
	if ri.Len() != len(col) {
		t.Fatalf("Len = %d", ri.Len())
	}
	// Each predefined selection is exact and cheap.
	for _, p := range paperRangePreds() {
		rows, exact, st := ri.Select(p.Lo, p.Hi)
		if !exact {
			t.Errorf("predefined %v should be exact", p)
		}
		if st.VectorsRead > 2 {
			t.Errorf("predefined %v read %d vectors, want <= 2 (Figure 8b)", p, st.VectorsRead)
		}
		for i, v := range col {
			if rows.Get(i) != (v >= p.Lo && v < p.Hi) {
				t.Errorf("predefined %v row %d wrong", p, i)
			}
		}
	}
}

func TestRangeIndexInexactQueries(t *testing.T) {
	col := []int64{6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 19}
	ri, err := BuildRangeIndex(col, 6, 20, paperRangePreds(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// [7, 11) cuts partitions [6,8) and [10,12): inexact superset.
	rows, exact, _ := ri.Select(7, 11)
	if exact {
		t.Fatal("misaligned range should be inexact")
	}
	for i, v := range col {
		if v >= 7 && v < 11 && !rows.Get(i) {
			t.Errorf("candidate set missed row %d (v=%d)", i, v)
		}
	}
	// Clamped and empty ranges.
	rows, exact, _ = ri.Select(-5, 6)
	if !exact || rows.Any() {
		t.Fatal("empty clamped range should be exact and empty")
	}
	rows, exact, _ = ri.Select(6, 99)
	if !exact || rows.Count() != len(col) {
		t.Fatal("full-domain range should be exact and complete")
	}
}

func TestRangeIndexAppendValidation(t *testing.T) {
	ri, err := BuildRangeIndex([]int64{19}, 6, 20, paperRangePreds(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, exact, _ := ri.Select(16, 20)
	if !exact || rows.Count() != 1 {
		t.Fatal("built row not found")
	}
	for _, bad := range []int64{5, 20} {
		if _, err := BuildRangeIndex([]int64{6, bad}, 6, 20, paperRangePreds(), nil); err == nil {
			t.Fatalf("out-of-domain build value %d should error", bad)
		}
	}
}

func TestRangeIndexDescribeSelection(t *testing.T) {
	ri, err := BuildRangeIndex(nil, 6, 20, paperRangePreds(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := ri.DescribeSelection(8, 12)
	if s == "" || s == "0" {
		t.Fatalf("DescribeSelection = %q", s)
	}
	if ri.Index() == nil {
		t.Fatal("Index accessor nil")
	}
}

// Property: exact flag is truthful — exact selections match a scan
// precisely; inexact ones are supersets confined to overlapping
// partitions.
func TestPropRangeIndexSelect(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		col := make([]int64, n)
		for i := range col {
			col[i] = 6 + int64(r.Intn(14))
		}
		ri, err := BuildRangeIndex(col, 6, 20, paperRangePreds(), nil)
		if err != nil {
			return false
		}
		lo := int64(r.Intn(25) - 2)
		hi := int64(r.Intn(25) - 2)
		rows, exact, _ := ri.Select(lo, hi)
		for i, v := range col {
			in := v >= lo && v < hi
			if in && !rows.Get(i) {
				return false // never miss a qualifying row
			}
			if exact && rows.Get(i) != in {
				return false // exact means exact
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
