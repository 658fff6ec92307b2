package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/encoding"
)

func TestSaveLoadOrderedRoundTrip(t *testing.T) {
	col := []int64{105, 101, 103, 105, 106, 102, 104}
	oi, err := BuildOrdered(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSynced(oi.Index())
	if err := s.Delete(0); err != nil {
		t.Fatal(err)
	}
	if oi, err = OrderedFrom(snapshot(s)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveOrdered(&buf, oi, Int64Codec{}); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadOrdered[int64](&buf, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	a, stA := oi.Range(102, 105)
	b, stB := loaded.Range(102, 105)
	if !a.Equal(b) || stA.VectorsRead != stB.VectorsRead {
		t.Fatalf("Range differs after round trip: %s vs %s", a.String(), b.String())
	}
	maxA, okA, _ := oi.Max(a)
	maxB, okB, _ := loaded.Max(b)
	if okA != okB || maxA != maxB {
		t.Fatalf("Max differs: %d,%v vs %d,%v", maxA, okA, maxB, okB)
	}
}

func TestOrderedFromRejectsUnorderedMapping(t *testing.T) {
	// A non-monotone mapping must be rejected.
	m := encoding.NewMapping[int64](3)
	m.MustAdd(10, 5)
	m.MustAdd(20, 2) // larger value, smaller code
	ix, err := Build([]int64{10, 20}, nil, &Options[int64]{Mapping: m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OrderedFrom(ix); err == nil {
		t.Fatal("non-order-preserving mapping accepted")
	}
	// Loading such an index through LoadOrdered must fail too.
	var buf bytes.Buffer
	if err := Save(&buf, ix, Int64Codec{}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadOrdered[int64](&buf, Int64Codec{}); err == nil {
		t.Fatal("LoadOrdered accepted a non-ordered index")
	}
}

// Property: ordered round trips preserve every Range and Min/Max answer.
func TestPropOrderedRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		m := 2 + r.Intn(40)
		col := make([]int64, n)
		for i := range col {
			col[i] = int64(r.Intn(m))
		}
		oi, err := BuildOrdered(col, nil, nil)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := SaveOrdered(&buf, oi, Int64Codec{}); err != nil {
			return false
		}
		loaded, err := LoadOrdered[int64](&buf, Int64Codec{})
		if err != nil {
			return false
		}
		for trial := 0; trial < 4; trial++ {
			lo := int64(r.Intn(m))
			hi := int64(r.Intn(m))
			a, _ := oi.Range(lo, hi)
			b, _ := loaded.Range(lo, hi)
			if !a.Equal(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
