package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/encoding"
)

func TestBuildOrderedBasics(t *testing.T) {
	col := []int{105, 101, 103, 105, 106, 102, 104}
	oi, err := BuildOrdered(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if oi.Len() != len(col) {
		t.Fatalf("Len = %d", oi.Len())
	}
	// Order preserving: codes ascend with values.
	m := oi.Index().Mapping()
	sorted := []int{101, 102, 103, 104, 105, 106}
	ok, err := encoding.IsOrderPreserving(m, sorted)
	if err != nil || !ok {
		t.Fatalf("mapping not order preserving: %v %v\n%s", ok, err, m)
	}
	// Code 0 reserved for void.
	if _, taken := m.ValueOf(0); taken {
		t.Fatal("code 0 should be free for void tuples")
	}
	if _, err := BuildOrdered([]int{}, nil, nil); err == nil {
		t.Fatal("empty column should error")
	}
}

func TestOrderedRange(t *testing.T) {
	col := []int{105, 101, 103, 105, 106, 102, 104}
	oi, err := BuildOrdered(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, st := oi.Range(102, 104)
	if rows.String() != "0010011" {
		t.Fatalf("Range(102,104) = %s", rows.String())
	}
	if st.VectorsRead > 2*oi.K() {
		t.Fatalf("Range read %d vectors, want <= 2k = %d", st.VectorsRead, 2*oi.K())
	}
	// Bounds between domain values.
	rows, _ = oi.Range(100, 101)
	if rows.String() != "0100000" {
		t.Fatalf("Range(100,101) = %s", rows.String())
	}
	rows, _ = oi.Range(200, 300)
	if rows.Any() {
		t.Fatal("out-of-domain range should be empty")
	}
	rows, _ = oi.Range(104, 102)
	if rows.Any() {
		t.Fatal("inverted range should be empty")
	}
}

func TestOrderedRangeSkipsVoidAndNull(t *testing.T) {
	col := []int{105, 101, 103, 105, 106, 102, 104}
	oi, err := BuildOrdered(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSynced(oi.Index())
	if err := s.Delete(1); err != nil { // void row holding 101
		t.Fatal(err)
	}
	if err := s.AppendNull(); err != nil {
		t.Fatal(err)
	}
	if oi, err = OrderedFrom(snapshot(s)); err != nil {
		t.Fatal(err)
	}
	rows, _ := oi.Range(101, 106)
	if rows.Count() != 6 {
		t.Fatalf("Range over all = %d rows, want 6 (void+NULL excluded): %s", rows.Count(), rows.String())
	}
	if rows.Get(1) || rows.Get(7) {
		t.Fatal("void or NULL row selected by Range")
	}
}

// Figure 6: the favored subdomain {101,102,104,105} should reduce to a
// single vector under the optimized order-preserving encoding.
func TestOrderedFavoredSubdomain(t *testing.T) {
	col := []int{101, 102, 103, 104, 105, 106}
	fav := []int{101, 102, 104, 105}
	oi, err := BuildOrdered(col, [][]int{fav}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := oi.Index().ExprFor(fav)
	if e.AccessCost() != 1 {
		t.Fatalf("favored IN cost = %d (%s), want 1 as in Figure 6", e.AccessCost(), e)
	}
	// Order preservation must survive the optimization and the void shift.
	ok, err := encoding.IsOrderPreserving(oi.Index().Mapping(), col)
	if err != nil || !ok {
		t.Fatal("optimized mapping lost order preservation")
	}
}

func TestRangeViaReductionAgrees(t *testing.T) {
	col := []int{105, 101, 103, 105, 106, 102, 104}
	oi, _ := BuildOrdered(col, nil, nil)
	a, _ := oi.Range(102, 105)
	b, _ := oi.RangeViaReduction(102, 105)
	if !a.Equal(b) {
		t.Fatalf("Range %s != RangeViaReduction %s", a.String(), b.String())
	}
	empty, _ := oi.RangeViaReduction(300, 400)
	if empty.Any() {
		t.Fatal("out-of-domain reduction range should be empty")
	}
}

// Property: Range matches a scan for arbitrary data and bounds, both
// algorithms agreeing.
func TestPropOrderedRangeMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		maxV := 2 + r.Intn(60)
		col := make([]int, n)
		for i := range col {
			col[i] = r.Intn(maxV)
		}
		oi, err := BuildOrdered(col, nil, nil)
		if err != nil {
			return false
		}
		lo := r.Intn(maxV)
		hi := r.Intn(maxV)
		rows, st := oi.Range(lo, hi)
		if st.VectorsRead > 2*oi.K()+1 {
			return false
		}
		for i, v := range col {
			if rows.Get(i) != (v >= lo && v <= hi) {
				return false
			}
		}
		viaRed, _ := oi.RangeViaReduction(lo, hi)
		return rows.Equal(viaRed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
