package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/iostat"
)

// TestExistingCountsNullReadsWithoutVoidReserve: without the void
// reservation Existing reads the vectors only to evaluate the NULL
// min-term, and must report those reads — on a plain index and on a
// Synced index with a tail, which must match a plain index over the same
// rows.
func TestExistingCountsNullReadsWithoutVoidReserve(t *testing.T) {
	opt := &Options[int]{DisableVoidReserve: true}
	col, nulls := []int{1, 2, 3, 1}, []bool{false, false, false, true}
	ix, err := Build(col, nulls, opt)
	if err != nil {
		t.Fatal(err)
	}
	rows, st := ix.Existing()
	if rows.String() != "1110" {
		t.Fatalf("Existing = %s, want 1110", rows.String())
	}
	if want := ix.K(); st.VectorsRead != want || st.WordsRead != want*wordsFor(ix.Len()) {
		t.Fatalf("Existing stats = %+v, want %d vectors and %d words", st, want, want*wordsFor(ix.Len()))
	}

	s, err := BuildSynced(col, nulls, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Enough tail rows to cross a word boundary, NULLs among them.
	for i := 0; i < 70; i++ {
		col, nulls = append(col, 1+i%3), append(nulls, i%5 == 0)
		if i%5 == 0 {
			err = s.AppendNull()
		} else {
			err = s.Append(1 + i%3)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	plain, err := Build(col, nulls, opt)
	if err != nil {
		t.Fatal(err)
	}
	gotRows, gotSt := s.Existing()
	wantRows, wantSt := plain.Existing()
	if !gotRows.Equal(wantRows) || gotSt != wantSt {
		t.Fatalf("Synced Existing %+v (%d rows), plain %+v (%d rows)", gotSt, gotRows.Count(), wantSt, wantRows.Count())
	}
	if wantSt.VectorsRead != plain.K() || wantSt.WordsRead != plain.K()*wordsFor(plain.Len()) {
		t.Fatalf("plain Existing stats = %+v over %d rows, k=%d", wantSt, plain.Len(), plain.K())
	}
}

// TestExistingAllNullWithoutVoidReserve covers the k = 0 code space: a
// column of only NULLs without the void reservation has one code, so
// the NULL min-term is the constant true and no row exists.
func TestExistingAllNullWithoutVoidReserve(t *testing.T) {
	ix, err := Build([]int{0, 0, 0}, []bool{true, true, true}, &Options[int]{DisableVoidReserve: true})
	if err != nil {
		t.Fatal(err)
	}
	if ix.K() != 0 {
		t.Fatalf("k = %d, want 0", ix.K())
	}
	if rows, _ := ix.Existing(); rows.String() != "000" {
		t.Fatalf("Existing = %s, want 000", rows.String())
	}
}

type readResult struct {
	rows *bitvec.Vector
	st   iostat.Stats
}

// readAll runs every Index read kind over a fixed selection script.
func readAll(ix *Index[int], shared *Prepared[int]) []readResult {
	var out []readResult
	add := func(rows *bitvec.Vector, st iostat.Stats) { out = append(out, readResult{rows, st}) }
	dst := bitvec.New(ix.Len())
	for v := 0; v < 24; v++ {
		add(ix.Eq(v))
		st := ix.EqInto(v, dst)
		add(dst.Clone(), st)
		vals := []int{v, (v * 7) % 24, (v * 13) % 24}
		add(ix.In(vals))
		add(ix.Prepare(vals).Eval())
		add(shared.Eval())
		st = shared.EvalInto(dst)
		add(dst.Clone(), st)
	}
	return out
}

// TestIndexConcurrentReads: every Index read is safe for concurrent use —
// including the first reads, which fill the program and don't-care
// caches — and answers exactly what a sequential run does. Run under
// -race.
func TestIndexConcurrentReads(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	col := make([]int, 3000)
	nulls := make([]bool, len(col))
	for i := range col {
		col[i] = r.Intn(20)
		nulls[i] = r.Intn(15) == 0
	}
	build := func() *Index[int] {
		ix, err := Build(col, nulls, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	seq := build()
	want := readAll(seq, seq.Prepare([]int{2, 3, 5, 7}))

	ix := build()
	shared := ix.Prepare([]int{2, 3, 5, 7})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := readAll(ix, shared)
			for i := range want {
				if !got[i].rows.Equal(want[i].rows) || got[i].st != want[i].st {
					t.Errorf("read %d: concurrent %+v, sequential %+v", i, got[i].st, want[i].st)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSyncedSnapshotStableUnderWriters: a reader holding a published
// snapshot sees the same K, vectors and answers while writers force
// free-code reuse, NULL-code allocation, widening, deletes and folds.
// Writers share the snapshot's vectors, so this guards the fresh-slice
// invariant of fitVectors (widen); run under -race.
func TestSyncedSnapshotStableUnderWriters(t *testing.T) {
	// Codes 1 and 2 hold values, 0 is void: exactly one free code (3).
	s, err := BuildSynced([]int{1, 2, 1, 2, 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.SetFoldThreshold(7)
	snap := snapshot(s)
	k := snap.K()
	vecs := make([]*bitvec.Vector, k)
	for i := range vecs {
		vecs[i] = snap.Vector(i).Clone()
	}
	eq1, eqSt := snap.Eq(1)
	in, inSt := snap.In([]int{1, 2})

	done := make(chan struct{})
	var passes atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ; ; passes.Add(1) {
			select {
			case <-done:
				return
			default:
			}
			if snap.K() != k || len(snap.srcs) != k {
				t.Error("snapshot K or operands changed")
				return
			}
			for i, v := range vecs {
				if !snap.Vector(i).Equal(v) || snap.srcs[i] != snap.vectors[i] {
					t.Errorf("snapshot vector %d changed", i)
					return
				}
			}
			if rows, st := snap.Eq(1); !rows.Equal(eq1) || st != eqSt {
				t.Error("snapshot Eq(1) changed")
				return
			}
			if rows, st := snap.In([]int{1, 2}); !rows.Equal(in) || st != inSt {
				t.Error("snapshot In changed")
				return
			}
		}
	}()

	steps := []func() error{
		func() error { return s.Append(3) }, // reuses the free code
		s.AppendNull,                        // no free code: widens for NULL
		func() error { return s.Append(4) }, // reuses a free code
		func() error { return s.Delete(0) },
	}
	for v := 5; v < 40; v++ { // widens twice more, folding on the way
		steps = append(steps, func() error { return s.Append(v) })
	}
	for _, step := range steps {
		if err := step(); err != nil {
			t.Fatal(err)
		}
		// Let the reader check the snapshot at least once between steps.
		for p := passes.Load(); passes.Load() < p+2 && !t.Failed(); {
			runtime.Gosched()
		}
	}
	close(done)
	wg.Wait()
	if s.K() <= k+1 {
		t.Fatalf("writers left k=%d, want widening past %d", s.K(), k+1)
	}
	if err := snapshot(s).CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
