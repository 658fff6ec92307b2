package core

import (
	"bytes"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to the index loader: it must reject or
// accept them without panicking, and anything it accepts must pass the
// index invariants (Load already enforces that; the fuzz target guards
// the property).
func FuzzLoad(f *testing.F) {
	// Seed with a valid file and a few mutations.
	ix, err := Build([]string{"a", "b", "c", "a"}, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, ix, StringCodec{}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("EBIX"))
	truncated := append([]byte(nil), valid[:len(valid)/2]...)
	f.Add(truncated)
	mutated := append([]byte(nil), valid...)
	if len(mutated) > 20 {
		mutated[20] ^= 0xFF
	}
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := Load[string](bytes.NewReader(data), StringCodec{})
		if err != nil {
			return
		}
		if err := loaded.CheckInvariants(); err != nil {
			t.Fatalf("Load accepted an inconsistent index: %v", err)
		}
		// An accepted index must round-trip.
		var out bytes.Buffer
		if err := Save(&out, loaded, StringCodec{}); err != nil {
			t.Fatalf("re-saving a loaded index failed: %v", err)
		}
	})
}

// FuzzBuildQueryDelete drives a Synced index through arbitrary operation
// sequences derived from fuzz bytes — appends (with domain expansion and
// widening), NULL appends, deletes, and tail folds, explicit and at a
// small threshold — and checks every selection against a mirror of the
// rows.
func FuzzBuildQueryDelete(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200, 4, 5})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := BuildSynced[int](nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.SetFoldThreshold(8)
		mirror := make([]int, 0, len(data)) // -1 = void, -2 = null
		for _, b := range data {
			switch {
			case b >= 250: // delete a row
				if len(mirror) > 0 {
					row := int(b) % len(mirror)
					if err := s.Delete(row); err != nil {
						t.Fatal(err)
					}
					mirror[row] = -1
				}
			case b >= 240: // append NULL
				if err := s.AppendNull(); err != nil {
					t.Fatal(err)
				}
				mirror = append(mirror, -2)
			case b >= 236: // fold the tail
				s.Flush()
			default: // append value b%32
				v := int(b) % 32
				if err := s.Append(v); err != nil {
					t.Fatal(err)
				}
				mirror = append(mirror, v)
			}
		}
		if s.Len() != len(mirror) {
			t.Fatalf("Len = %d, mirror has %d rows", s.Len(), len(mirror))
		}
		if err := snapshot(s).CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// One full query sweep against the mirror.
		for v := 0; v < 32; v++ {
			rows, st := s.Eq(v)
			if st.VectorsRead > s.K() {
				t.Fatalf("Eq(%d) read %d vectors, k=%d", v, st.VectorsRead, s.K())
			}
			for i, mv := range mirror {
				if rows.Get(i) != (mv == v) {
					t.Fatalf("Eq(%d) wrong at row %d (mirror %d)", v, i, mv)
				}
			}
		}
		nulls, _ := s.IsNull()
		existing, _ := s.Existing()
		for i, mv := range mirror {
			if nulls.Get(i) != (mv == -2) || existing.Get(i) != (mv >= 0) {
				t.Fatalf("row %d (mirror %d): IsNull %v, Existing %v", i, mv, nulls.Get(i), existing.Get(i))
			}
		}
	})
}
