package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/encoding"
)

// figure1Options reproduces the paper's Figure 1 exactly: mapping a=00,
// b=01, c=10, no void reservation, no don't-cares (the paper introduces
// those later).
func figure1Options() *Options[string] {
	m := encoding.NewMapping[string](2)
	m.MustAdd("a", 0b00)
	m.MustAdd("b", 0b01)
	m.MustAdd("c", 0b10)
	return &Options[string]{Mapping: m, DisableVoidReserve: true, DisableDontCares: true}
}

func figure1Column() []string { return []string{"a", "b", "c", "b", "a", "c"} }

func TestFigure1Vectors(t *testing.T) {
	ix, err := Build(figure1Column(), nil, figure1Options())
	if err != nil {
		t.Fatal(err)
	}
	if ix.K() != 2 || ix.Len() != 6 || ix.Cardinality() != 3 {
		t.Fatalf("K=%d Len=%d Card=%d", ix.K(), ix.Len(), ix.Cardinality())
	}
	// Figure 1's B_1 and B_0 columns for rows a,b,c,b,a,c.
	if got := ix.Vector(1).String(); got != "001001" {
		t.Errorf("B1 = %s, want 001001", got)
	}
	if got := ix.Vector(0).String(); got != "010100" {
		t.Errorf("B0 = %s, want 010100", got)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFigure1Queries(t *testing.T) {
	ix, err := Build(figure1Column(), nil, figure1Options())
	if err != nil {
		t.Fatal(err)
	}
	// Q1: A = a uses f_a = B1'B0' — both vectors read (c_e = 2).
	rows, st := ix.Eq("a")
	if rows.String() != "100010" {
		t.Errorf("Eq(a) = %s, want 100010", rows.String())
	}
	if st.VectorsRead != 2 {
		t.Errorf("Eq(a) c_e = %d, want 2", st.VectorsRead)
	}
	// Q2: A = a OR A = b reduces to B1' — one vector read (c_e = 1).
	rows, st = ix.In([]string{"a", "b"})
	if rows.String() != "110110" {
		t.Errorf("In{a,b} = %s, want 110110", rows.String())
	}
	if st.VectorsRead != 1 {
		t.Errorf("In{a,b} c_e = %d, want 1 (the paper's B1')", st.VectorsRead)
	}
	if got := ix.DescribeSelection([]string{"a", "b"}); got != "B1'" {
		t.Errorf("retrieval expression = %q, want B1'", got)
	}
	// Retrieval functions of Definition 2.1.
	if got := ix.DescribeSelection([]string{"a"}); got != "B1'B0'" {
		t.Errorf("f_a = %q, want B1'B0'", got)
	}
	if got := ix.DescribeSelection([]string{"c"}); got != "B1B0'" {
		t.Errorf("f_c = %q, want B1B0'", got)
	}
}

func TestEqUnknownAndEmptyIn(t *testing.T) {
	ix, _ := Build(figure1Column(), nil, figure1Options())
	rows, st := ix.Eq("zzz")
	if rows.Any() || st.VectorsRead != 0 {
		t.Fatal("unknown value should match nothing")
	}
	rows, _ = ix.In(nil)
	if rows.Any() {
		t.Fatal("empty IN should match nothing")
	}
	rows, _ = ix.In([]string{"zzz", "a"})
	if rows.Count() != 2 {
		t.Fatal("In should ignore unknown values")
	}
}

// Figure 2(a): appending d to domain {a,b,c} keeps k=2 and assigns the
// free code 11.
func TestFigure2aDomainExpansionNoNewVector(t *testing.T) {
	s, err := BuildSynced(figure1Column(), nil, figure1Options())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("d"); err != nil {
		t.Fatal(err)
	}
	ix := snapshot(s)
	if ix.K() != 2 {
		t.Fatalf("K = %d after appending d, want 2 (no new vector)", ix.K())
	}
	code, ok := ix.Mapping().CodeOf("d")
	if !ok || code != 0b11 {
		t.Fatalf("M(d) = %02b, want 11", code)
	}
	rows, _ := ix.Eq("d")
	if rows.String() != "0000001" {
		t.Fatalf("Eq(d) = %s", rows.String())
	}
	if got := ix.DescribeSelection([]string{"d"}); got != "B1B0" {
		t.Errorf("f_d = %q, want B1B0", got)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Figure 2(b): appending e after d exhausts the 2-bit space, adds vector
// B2, and revises the retrieval functions by ANDing B2'.
func TestFigure2bDomainExpansionNewVector(t *testing.T) {
	s, err := BuildSynced(figure1Column(), nil, figure1Options())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("d"); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("e"); err != nil {
		t.Fatal(err)
	}
	ix := snapshot(s)
	if ix.K() != 3 {
		t.Fatalf("K = %d after appending e, want 3", ix.K())
	}
	code, _ := ix.Mapping().CodeOf("e")
	if code != 0b100 {
		t.Fatalf("M(e) = %03b, want 100", code)
	}
	// Old codes zero-extended: B2 is 0 for all pre-existing rows.
	if ix.Vector(2).Count() != 1 || !ix.Vector(2).Get(7) {
		t.Fatalf("B2 = %s, want only the new row set", ix.Vector(2).String())
	}
	// f_e = B2 B1' B0' and old functions gain B2'.
	if got := ix.DescribeSelection([]string{"e"}); got != "B2B1'B0'" {
		t.Errorf("f_e = %q, want B2B1'B0'", got)
	}
	if got := ix.DescribeSelection([]string{"a"}); got != "B2'B1'B0'" {
		t.Errorf("f_a = %q, want B2'B1'B0'", got)
	}
	// All old selections still correct.
	rows, _ := ix.Eq("a")
	if rows.String() != "10001000" {
		t.Fatalf("Eq(a) = %s", rows.String())
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Theorem 2.1: with void = 0, selections over existing tuples need no
// existence mask — deleted rows simply never match.
func TestTheorem21VoidZero(t *testing.T) {
	col := []string{"x", "y", "z", "x", "y", "z", "x"}
	s, err := BuildSynced(col, nil, nil) // defaults: void reserved
	if err != nil {
		t.Fatal(err)
	}
	// Code 0 must be unassigned.
	if _, taken := s.Mapping().ValueOf(0); taken {
		t.Fatal("code 0 should be reserved for void tuples")
	}
	if err := s.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(4); err != nil {
		t.Fatal(err)
	}
	ix := snapshot(s)
	rows, _ := ix.Eq("x")
	if rows.String() != "0001001" {
		t.Errorf("Eq(x) after deletes = %s, want 0001001", rows.String())
	}
	rows, _ = ix.In([]string{"x", "y", "z"})
	if rows.Count() != 5 {
		t.Errorf("all-values selection matched %d rows, want 5 (no voids)", rows.Count())
	}
	ex, _ := ix.Existing()
	if ex.Count() != 5 || ex.Get(0) || ex.Get(4) {
		t.Errorf("Existing = %s", ex.String())
	}
	if ix.Deleted() != 2 {
		t.Errorf("Deleted = %d", ix.Deleted())
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteRequiresVoidReserve(t *testing.T) {
	ix, _ := BuildSynced(figure1Column(), nil, figure1Options())
	if err := ix.Delete(0); err == nil {
		t.Fatal("Delete without void reservation should error")
	}
	ix2, _ := BuildSynced(figure1Column(), nil, nil)
	if err := ix2.Delete(-1); err == nil {
		t.Fatal("out-of-range Delete should error")
	}
}

func TestNullHandling(t *testing.T) {
	col := []string{"a", "?", "b", "?"}
	isNull := []bool{false, true, false, true}
	ix, err := Build(col, isNull, nil)
	if err != nil {
		t.Fatal(err)
	}
	nulls, _ := ix.IsNull()
	if nulls.String() != "0101" {
		t.Fatalf("IsNull = %s", nulls.String())
	}
	// NULL rows never match value selections.
	rows, _ := ix.In([]string{"a", "b", "?"})
	if rows.String() != "1010" {
		t.Fatalf("In{a,b,?} = %s (NULL rows must not match)", rows.String())
	}
	// "?" the *value* at row 1 is NULL, not the string "?": the string was
	// never indexed as a value.
	if ix.Cardinality() != 2 {
		t.Fatalf("Cardinality = %d, want 2", ix.Cardinality())
	}
	ex, _ := ix.Existing()
	if ex.String() != "1010" {
		t.Fatalf("Existing = %s (NULLs excluded)", ex.String())
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build([]string{"a"}, []bool{true, false}, nil); err == nil {
		t.Fatal("length mismatch should error")
	}
	m := encoding.NewMapping[string](1)
	m.MustAdd("a", 0)
	if _, err := Build([]string{"a", "b"}, nil, &Options[string]{Mapping: m, DisableVoidReserve: true}); err == nil {
		t.Fatal("mapping missing a column value should error")
	}
}

func TestCustomMappingVoidConflictResolved(t *testing.T) {
	// Custom mapping uses code 0; the default void reservation must rebind
	// that value, not fail.
	m := encoding.NewMapping[string](2)
	m.MustAdd("a", 0b00)
	m.MustAdd("b", 0b01)
	ix, err := Build([]string{"a", "b"}, nil, &Options[string]{Mapping: m})
	if err != nil {
		t.Fatal(err)
	}
	if _, taken := ix.Mapping().ValueOf(0); taken {
		t.Fatal("code 0 still assigned after void reservation")
	}
	rows, _ := ix.Eq("a")
	if rows.String() != "10" {
		t.Fatalf("Eq(a) = %s", rows.String())
	}
}

func TestDecodeRowAndCodeAt(t *testing.T) {
	col := []string{"a", "b", "c"}
	ix, _ := Build(col, nil, nil)
	for i, want := range col {
		v, isNull, ok := ix.DecodeRow(i)
		if !ok || isNull || v != want {
			t.Fatalf("DecodeRow(%d) = %v,%v,%v", i, v, isNull, ok)
		}
	}
	s := NewSynced(ix)
	_ = s.Delete(1)
	ix = snapshot(s)
	if _, _, ok := ix.DecodeRow(1); ok {
		t.Fatal("voided row should not decode")
	}
	if ix.CodeAt(1) != 0 {
		t.Fatal("voided row code should be 0")
	}
	_ = s.AppendNull()
	ix = snapshot(s)
	v, isNull, ok := ix.DecodeRow(3)
	if ok || !isNull {
		t.Fatalf("NULL row DecodeRow = %v,%v,%v", v, isNull, ok)
	}
}

func TestEmptyDomainGrowsFromNothing(t *testing.T) {
	s, err := BuildSynced[string](nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("first"); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("second"); err != nil {
		t.Fatal(err)
	}
	rows, _ := s.Eq("second")
	if rows.String() != "01" {
		t.Fatalf("Eq(second) = %s", rows.String())
	}
	if err := snapshot(s).CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The paper's headline numbers: 12000 products need 14 vectors, not 12000.
func TestProductsExampleVectorCount(t *testing.T) {
	var domain []int
	for i := 0; i < 12000; i++ {
		domain = append(domain, i)
	}
	ix, err := Build(domain, nil, &Options[int]{DisableVoidReserve: true})
	if err != nil {
		t.Fatal(err)
	}
	if ix.K() != 14 {
		t.Fatalf("K = %d for 12000 products, paper says 14", ix.K())
	}
}

// Property: Build(column) and the Eq/In results agree with a direct scan,
// including after random deletions, with NO existence vector involved.
func TestPropQueriesMatchScanWithDeletes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		m := 1 + r.Intn(20)
		col := make([]int, n)
		for i := range col {
			col[i] = r.Intn(m)
		}
		s, err := BuildSynced(col, nil, nil)
		if err != nil {
			return false
		}
		deleted := make(map[int]bool)
		for d := 0; d < n/10; d++ {
			row := r.Intn(n)
			if s.Delete(row) != nil {
				return false
			}
			deleted[row] = true
		}
		ix := snapshot(s)
		if ix.CheckInvariants() != nil {
			return false
		}
		v := r.Intn(m)
		eq, st := ix.Eq(v)
		if st.VectorsRead > ix.K() {
			return false
		}
		for i, x := range col {
			want := x == v && !deleted[i]
			if eq.Get(i) != want {
				return false
			}
		}
		delta := 1 + r.Intn(m)
		vals := r.Perm(m)[:delta]
		in, st := ix.In(vals)
		if st.VectorsRead > ix.K() {
			return false
		}
		inSet := make(map[int]bool)
		for _, x := range vals {
			inSet[x] = true
		}
		for i, x := range col {
			want := inSet[x] && !deleted[i]
			if in.Get(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: incremental appends (with domain expansion) produce the same
// index answers as a bulk build.
func TestPropIncrementalEqualsBulk(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		col := make([]int, n)
		for i := range col {
			col[i] = r.Intn(40)
		}
		bulk, err := Build(col, nil, nil)
		if err != nil {
			return false
		}
		s, err := BuildSynced[int](nil, nil, nil)
		if err != nil {
			return false
		}
		s.SetFoldThreshold(1 + r.Intn(64))
		for _, v := range col {
			if s.Append(v) != nil {
				return false
			}
		}
		inc := snapshot(s)
		if inc.CheckInvariants() != nil || bulk.CheckInvariants() != nil {
			return false
		}
		for trial := 0; trial < 5; trial++ {
			v := r.Intn(40)
			a, _ := bulk.Eq(v)
			b, _ := inc.Eq(v)
			if !a.Equal(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: NotIn is the complement of In over existing, non-NULL rows.
func TestPropNotInComplement(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		col := make([]int, n)
		isNull := make([]bool, n)
		for i := range col {
			col[i] = r.Intn(15)
			isNull[i] = r.Intn(10) == 0
		}
		ix, err := Build(col, isNull, nil)
		if err != nil {
			return false
		}
		vals := r.Perm(15)[:1+r.Intn(10)]
		in, _ := ix.In(vals)
		notIn, _ := ix.NotIn(vals)
		ex, _ := ix.Existing()
		// in ∪ notIn == existing, in ∩ notIn == ∅.
		union := in.Clone().Or(notIn)
		inter := in.Clone().And(notIn)
		return union.Equal(ex) && !inter.Any()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the encoded index's sparsity hovers near 1/2 (paper Section
// 3.1) for uniform data over power-of-two-ish cardinalities, vs (m-1)/m
// for simple bitmaps.
func TestSparsityNearHalf(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	col := make([]int, 20000)
	for i := range col {
		col[i] = r.Intn(256)
	}
	ix, err := Build(col, nil, &Options[int]{DisableVoidReserve: true})
	if err != nil {
		t.Fatal(err)
	}
	s := ix.AverageSparsity()
	if s < 0.45 || s > 0.55 {
		t.Fatalf("AverageSparsity = %v, want ~0.5", s)
	}
}
