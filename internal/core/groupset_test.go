package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/encoding"
)

func TestNewGroupSetValidation(t *testing.T) {
	if _, err := NewGroupSet(); err == nil {
		t.Fatal("empty group set should error")
	}
	a, _ := Build([]int{1, 2}, nil, nil)
	b, _ := Build([]int{1, 2, 3}, nil, nil)
	if _, err := NewGroupSet(a, b); err == nil {
		t.Fatal("row-count mismatch should error")
	}
}

func TestGroupSetPaperVectorCounts(t *testing.T) {
	// Section 4's example: Group-By attributes with cardinalities 100,
	// 200, 500 — 10^7 vectors under simple bitmap group-set indexing,
	// Σ ceil(log2 m_i) = 7+8+9 = 24 under per-attribute encoded indexes.
	mk := func(m, n int) *Index[int] {
		domain := make([]int, m)
		for i := range domain {
			domain[i] = i
		}
		column := make([]int, n)
		for i := range column {
			column[i] = i % m
		}
		ix, err := Build(column, nil, &Options[int]{Mapping: encoding.MappingOf(domain), DisableVoidReserve: true})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	n := 100
	g, err := NewGroupSet(mk(100, n), mk(200, n), mk(500, n))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVectors() != 24 {
		t.Fatalf("NumVectors = %d, want 24 (7+8+9)", g.NumVectors())
	}
	// The paper's tighter figure of 20 comes from encoding only the ~10^6
	// combinations that actually occur (footnote 5, density 10%):
	// ceil(log2 10^6) = 20.
	if got := encoding.BitsFor(1000000); got != 20 {
		t.Fatalf("BitsFor(10^6) = %d, paper says 20", got)
	}
}

func TestGroupCountsAndSum(t *testing.T) {
	region := []string{"n", "s", "n", "s", "n"}
	tier := []int{1, 1, 2, 2, 1}
	sales := []float64{10, 20, 30, 40, 50}
	rIx, err := Build(region, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tIx, err := Build(tier, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGroupSet(rIx, tIx)
	if err != nil {
		t.Fatal(err)
	}
	all := bitvec.New(5)
	all.Fill()
	counts := g.GroupCounts(all)
	if len(counts) != 4 {
		t.Fatalf("groups = %d, want 4", len(counts))
	}
	sums, err := g.GroupSum(all, sales)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the (n,1) group via a known row.
	keyN1 := g.KeyAt(0)
	if counts[keyN1] != 2 || sums[keyN1] != 60 { // rows 0 and 4
		t.Fatalf("(n,1): count=%d sum=%v, want 2, 60", counts[keyN1], sums[keyN1])
	}
	// SplitKey must reproduce the per-column codes.
	parts := g.SplitKey(keyN1)
	if len(parts) != 2 || parts[0] != rIx.CodeAt(0) || parts[1] != tIx.CodeAt(0) {
		t.Fatalf("SplitKey = %v", parts)
	}
	if _, err := g.GroupSum(all, sales[:2]); err == nil {
		t.Fatal("measure length mismatch should error")
	}
	if g.Len() != 5 {
		t.Fatalf("Len = %d", g.Len())
	}
}

func TestGroupSetKeyWidthLimit(t *testing.T) {
	big := make([]int, 1)
	big[0] = 0
	var cols []Column
	for i := 0; i < 9; i++ {
		domain := make([]int, 200) // k = 8 each
		for j := range domain {
			domain[j] = j
		}
		ix, err := Build([]int{0}, nil, &Options[int]{Mapping: encoding.MappingOf(domain), DisableVoidReserve: true})
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, ix)
	}
	if _, err := NewGroupSet(cols...); err == nil {
		t.Fatal("9 x 8 = 72 key bits should exceed the 64-bit limit")
	}
	_ = big
}

// Property: group counts partition the selection: sums of counts equal the
// selected row count, and every row's key decodes to its actual values.
func TestPropGroupCountsPartition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = r.Intn(8)
			b[i] = r.Intn(5)
		}
		aIx, err := Build(a, nil, nil)
		if err != nil {
			return false
		}
		bIx, err := Build(b, nil, nil)
		if err != nil {
			return false
		}
		g, err := NewGroupSet(aIx, bIx)
		if err != nil {
			return false
		}
		sel := bitvec.New(n)
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				sel.Set(i)
			}
		}
		counts := g.GroupCounts(sel)
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != sel.Count() {
			return false
		}
		// Keys group identical (a,b) pairs together.
		want := make(map[[2]int]int)
		sel.ForEach(func(row int) bool {
			want[[2]int{a[row], b[row]}]++
			return true
		})
		return len(want) == len(counts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
