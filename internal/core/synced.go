package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/encoding"
	"repro/internal/obs"
)

// Synced is the mutable encoded bitmap index: the one handle that
// appends, deletes and re-encodes. It is built on an epoch/RCU scheme
// instead of a reader-writer lock: the current state — an immutable base
// Index snapshot plus an append-only tail of encoded codes — lives behind
// an atomic pointer. Readers load the pointer once
// and evaluate entirely against that snapshot, so they never block and
// never observe a torn write; writers publish a fresh state and the old
// one is reclaimed by the garbage collector once the last reader drops
// it (GC as the grace period).
//
// Appends are O(1) publications: the code lands in the tail and readers
// extend their snapshot evaluation across it. The tail is folded into
// the base vectors in the background once it crosses the fold
// threshold. Maintenance operations (Delete, Reencode) rebuild a private
// copy and swap it in atomically; Reencode in
// particular runs the paper's dynamic re-encoding as a background
// shadow rebuild with catch-up replay, so heavy read traffic runs
// straight through a re-encoding with zero stalls.
//
// Reads share the Index evaluator (read.go): each loads the state once
// and extends its result across the tail, reporting iostat.Stats exactly
// equal to what a plain Index holding the same rows would report.
type Synced[V comparable] struct {
	state atomic.Pointer[epochState[V]]

	// writeMu serializes every state publication (appends, observer
	// swaps, and the final flip of maintenance rebuilds). Readers never
	// take it.
	writeMu sync.Mutex
	// maintMu serializes whole-index maintenance (tail folds, Delete,
	// Reencode) so at most one rebuild runs at a time.
	// It is acquired before writeMu and never the other way around.
	maintMu sync.Mutex

	// tailMaster is the writer-owned backing array of the published
	// tail. Appends extend it in place and re-publish a longer header;
	// readers index only [0, tailLen) of their snapshot, which was
	// fully written before that snapshot was published.
	tailMaster []uint64

	foldThreshold int

	// progs caches compiled single-code fused programs, keyed by encGen.
	progs progCache

	// testHook, when non-nil, is called at fixed points inside Reencode
	// (0: shadow built; 1: after a catch-up round; 2: before taking the
	// flip lock) so tests can inject appends at precise interleavings.
	// Set it before any concurrent use.
	testHook func(stage int)
}

// epochState is one immutable read state: a published state of a Synced
// index, or a plain Index's view of itself (no tail). Every read
// evaluates against one (read.go).
type epochState[V comparable] struct {
	// ix is the base snapshot. Synced reads go through the Synced's
	// program cache, which outlives any one snapshot.
	ix *Index[V]
	// tail holds codes appended since ix was built, one uint64-padded
	// k-bit code per row, in append order. Only [0, tailLen) is valid
	// for this state; the backing array may grow in place afterwards.
	tail    []uint64
	tailLen int
	// epoch counts re-encoding flips; it changes only when the live
	// code assignment is swapped (Reencode). It starts at 1, so 0 marks
	// a plain Index's view.
	epoch uint64
	// encGen counts code-space generations: any change to the mapping
	// content, vector count, don't-care set, or NULL code bumps it.
	// Equal encGen values guarantee identical compiled programs.
	encGen uint64
}

// DefaultFoldThreshold is the tail length at which appends opportunistically
// fold the tail into the base vectors.
const DefaultFoldThreshold = 4096

// Flip tuning for Reencode's catch-up loop: replay rounds continue while
// more than reencodeFlipTail appends are outstanding (bounded by
// reencodeMaxRounds so a hot writer cannot starve the flip forever).
const (
	reencodeFlipTail  = 256
	reencodeMaxRounds = 8
)

// NewSynced starts a mutable handle whose first snapshot is ix.
func NewSynced[V comparable](ix *Index[V]) *Synced[V] {
	s := &Synced[V]{foldThreshold: DefaultFoldThreshold}
	s.state.Store(&epochState[V]{ix: ix, epoch: 1, encGen: 1})
	return s
}

// BuildSynced builds an index and wraps it.
func BuildSynced[V comparable](column []V, isNull []bool, opt *Options[V]) (*Synced[V], error) {
	ix, err := Build(column, isNull, opt)
	if err != nil {
		return nil, err
	}
	return NewSynced(ix), nil
}

// SetFoldThreshold sets the tail length that triggers a background fold.
// Call before any concurrent use.
func (s *Synced[V]) SetFoldThreshold(n int) {
	if n < 1 {
		n = 1
	}
	s.foldThreshold = n
}

// wordsFor returns the dense word count of an n-bit vector, mirroring
// bitvec's layout: the analytic WordsRead unit.
func wordsFor(n int) int { return (n + 63) / 64 }

// publishableClone returns a private copy of a published snapshot for a
// writer to change and publish in its place. It owns its mapping and
// slices; the vectors themselves stay shared, as no writer appends to a
// published vector.
func publishableClone[V comparable](ix *Index[V]) *Index[V] {
	return ix.derive(ix.mapping.Clone(), ix.vectors)
}

// Len returns the row count (base snapshot plus outstanding tail).
func (s *Synced[V]) Len() int {
	st := s.state.Load()
	return st.ix.n + st.tailLen
}

// K returns the vector count.
func (s *Synced[V]) K() int { return s.state.Load().ix.K() }

// Cardinality returns the number of mapped values.
func (s *Synced[V]) Cardinality() int { return s.state.Load().ix.Cardinality() }

// Epoch returns the live epoch number; it advances exactly once per
// applied re-encoding flip.
func (s *Synced[V]) Epoch() uint64 { return s.state.Load().epoch }

// Mapping returns a copy of the current mapping table.
func (s *Synced[V]) Mapping() *encoding.Mapping[V] { return s.state.Load().ix.Mapping() }

// Values returns the domain values ordered by code.
func (s *Synced[V]) Values() []V { return s.state.Load().ix.Values() }

// TheoreticalMinVectors returns the Theorem 2.2/2.3 minimum vectors any
// encoding could read for a delta-value selection (see Index).
func (s *Synced[V]) TheoreticalMinVectors(delta int) int {
	return s.state.Load().ix.TheoreticalMinVectors(delta)
}

// SetSelectionObserver installs (or removes) the selection observer by
// publishing a fresh snapshot; in-flight reads against the previous
// snapshot report to the previous observer.
func (s *Synced[V]) SetSelectionObserver(o SelectionObserver[V]) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	st := s.state.Load()
	nix := publishableClone(st.ix)
	nix.observer = o
	s.state.Store(&epochState[V]{ix: nix, tail: st.tail, tailLen: st.tailLen, epoch: st.epoch, encGen: st.encGen})
}

// PlanReencode prices a re-encoding for a weighted predicate workload
// against the current state (planning only reads the snapshot's
// mapping). The rebuild term covers the full logical length including
// the tail. Apply the returned plan live with Reencode.
func (s *Synced[V]) PlanReencode(predicates [][]V, weights []int, searchOpt *encoding.SearchOptions) (*ReencodePlan[V], error) {
	st := s.state.Load()
	plan, err := st.ix.PlanReencode(predicates, weights, searchOpt)
	if plan != nil {
		plan.RebuildVectors = plan.Mapping.K() * (st.ix.n + st.tailLen)
	}
	return plan, err
}

// pushTailLocked appends one code to the writer-owned tail and publishes
// the new state. writeMu must be held. Readers holding older states see
// only their own prefix of the shared backing array, every element of
// which was written before that state was published.
func (s *Synced[V]) pushTailLocked(st *epochState[V], ix *Index[V], code uint32, encGen uint64) {
	s.tailMaster = append(s.tailMaster, uint64(code))
	s.state.Store(&epochState[V]{
		ix:      ix,
		tail:    s.tailMaster,
		tailLen: len(s.tailMaster),
		epoch:   st.epoch,
		encGen:  encGen,
	})
}

// Append adds a tuple, handling both maintenance cases of Section 2.2.
// A known value is an O(1) tail publication; an unknown value
// additionally publishes a snapshot clone whose mapping covers it,
// reusing a free code when ceil(log2 m) is unchanged (Figure 2a) and
// widening the index by a new bitmap vector otherwise (Figure 2b).
func (s *Synced[V]) Append(v V) error {
	s.writeMu.Lock()
	st := s.state.Load()
	ix, encGen := st.ix, st.encGen
	code, ok := ix.mapping.CodeOf(v)
	if !ok {
		ix, encGen = publishableClone(ix), encGen+1
		var err error
		if code, err = ix.codeFor(v); err != nil {
			s.writeMu.Unlock()
			return err
		}
	}
	s.pushTailLocked(st, ix, code, encGen)
	mAppends.Inc()
	s.writeMu.Unlock()
	s.maybeFold()
	return nil
}

// AppendNull adds a NULL tuple.
func (s *Synced[V]) AppendNull() error {
	s.writeMu.Lock()
	st := s.state.Load()
	ix, encGen := st.ix, st.encGen
	if !ix.hasNullCode {
		ix, encGen = publishableClone(ix), encGen+1
		ix.enableNull()
	}
	s.pushTailLocked(st, ix, ix.nullCode, encGen)
	mAppends.Inc()
	s.writeMu.Unlock()
	s.maybeFold()
	return nil
}

// maybeFold folds the tail into the base vectors when it has crossed the
// threshold and no other maintenance is running (TryLock: appends never
// block behind a rebuild).
func (s *Synced[V]) maybeFold() {
	if s.state.Load().tailLen < s.foldThreshold {
		return
	}
	if !s.maintMu.TryLock() {
		return
	}
	defer s.maintMu.Unlock()
	s.foldLocked()
}

// Flush folds any outstanding tail into the base vectors immediately.
func (s *Synced[V]) Flush() {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	if s.state.Load().tailLen == 0 {
		return
	}
	s.foldLocked()
}

// materialize builds a fully private Index holding the state's complete
// contents (base snapshot plus tail), with no counter side effects: the
// rows were each counted once when they first landed.
func materialize[V comparable](st *epochState[V]) *Index[V] {
	vecs := make([]*bitvec.Vector, len(st.ix.vectors))
	for i, v := range st.ix.vectors {
		vecs[i] = v.Clone()
	}
	ix := st.ix.derive(st.ix.mapping.Clone(), vecs)
	for i := 0; i < st.tailLen; i++ {
		ix.appendCode(uint32(st.tail[i]))
	}
	return ix
}

// privateCopyLocked materializes the live state into a private index,
// then takes writeMu and brings the copy up to date: appends that landed
// meanwhile may have expanded the domain, widened the index or allocated
// the NULL code, and the rest of the tail is encoded under that newer
// mapping. Mappings only grow between epochs, so adopting the current
// one wholesale keeps every already-replayed code valid. maintMu must be
// held; the caller unlocks writeMu after publishing (or dropping) the
// copy, so appends overlap only with the bulk copy.
func (s *Synced[V]) privateCopyLocked() (*Index[V], *epochState[V]) {
	st := s.state.Load()
	ix := materialize(st)
	s.writeMu.Lock()
	cur := s.state.Load()
	ix.mapping = cur.ix.mapping.Clone()
	ix.hasNullCode, ix.nullCode, ix.observer = cur.ix.hasNullCode, cur.ix.nullCode, cur.ix.observer
	ix.fitVectors()
	ix.invalidateCache()
	for i := st.tailLen; i < cur.tailLen; i++ {
		ix.appendCode(uint32(cur.tail[i]))
	}
	return ix, cur
}

// publishLocked publishes ix as the new base snapshot with an empty tail.
// writeMu must be held.
func (s *Synced[V]) publishLocked(ix *Index[V], epoch, encGen uint64) {
	s.tailMaster = nil
	s.state.Store(&epochState[V]{ix: ix, epoch: epoch, encGen: encGen})
}

// foldLocked republishes the live state with its tail folded into the
// base vectors. maintMu must be held.
func (s *Synced[V]) foldLocked() {
	ix, cur := s.privateCopyLocked()
	defer s.writeMu.Unlock()
	s.publishLocked(ix, cur.epoch, cur.encGen)
	mFolds.Inc()
}

// Delete voids a row: its code becomes 0 (Theorem 2.1's convention), so
// selections skip it with no existence mask. Like all maintenance it
// rebuilds privately and flips: readers in flight keep the pre-delete
// state, and on error nothing is published.
func (s *Synced[V]) Delete(row int) error {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	ix, cur := s.privateCopyLocked()
	defer s.writeMu.Unlock()
	if err := ix.voidRow(row); err != nil {
		return err
	}
	s.publishLocked(ix, cur.epoch, cur.encGen)
	return nil
}

// WithReadLock runs fn against a consistent snapshot: the live base
// snapshot when no tail is outstanding, otherwise a private materialized
// copy. Either is an ordinary immutable Index.
func (s *Synced[V]) WithReadLock(fn func(ix *Index[V]) error) error {
	st := s.state.Load()
	if st.tailLen == 0 {
		return fn(st.ix)
	}
	return fn(materialize(st))
}

// replayTailCode appends one tail code's tuple into the shadow index
// during a live re-encoding. The code is decoded under the epoch it was
// assigned in and re-encoded under the shadow's mapping — the two differ
// by exactly the re-encoding being applied.
func (s *Synced[V]) replayTailCode(shadow *Index[V], cur *epochState[V], code uint32) error {
	mCatchupReplays.Inc()
	if cur.ix.hasNullCode && code == cur.ix.nullCode {
		shadow.appendNull()
		return nil
	}
	v, ok := cur.ix.mapping.ValueOf(code)
	if !ok {
		return fmt.Errorf("core: tail code %b is not in the current mapping", code)
	}
	return shadow.appendValue(v)
}

// Reencode applies a new encoding live: the base snapshot is rebuilt in
// the background under the new mapping (reads continue against the old
// epoch untouched), appends that land during the rebuild are replayed
// into the shadow in catch-up rounds, and once the outstanding tail is
// short the epochs flip atomically — readers never stall, and the next
// read after the flip runs under the new code assignment. The mapping
// must cover every mapped value, keep code 0 free when reserved, and
// leave room for NULL; row contents (voids and NULLs included) are
// preserved exactly.
func (s *Synced[V]) Reencode(newMapping *encoding.Mapping[V]) (err error) {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()

	st0 := s.state.Load()
	_, sp := obs.StartSpan(context.Background(), "ebi.reencode")
	if sp != nil {
		sp.SetAttr("rows", st0.ix.n+st0.tailLen)
		sp.SetAttr("old_k", st0.ix.K())
		sp.SetAttr("new_k", newMapping.K())
		sp.SetAttr("epoch", st0.epoch)
		defer func() {
			sp.SetError(err)
			sp.End()
		}()
	}

	// Shadow rebuild of the base snapshot. Reads and appends continue.
	shadow, err := st0.ix.reencodedCopy(newMapping)
	if err != nil {
		return err
	}
	s.hook(0)

	// Catch-up: replay appends that landed before or during the rebuild,
	// still without blocking the writer. Each round drains the tail the
	// previous round left; stop when what remains is short enough to
	// replay under the flip lock (or a hot writer has kept us chasing
	// for too many rounds — the final drain is then longer but bounded
	// by what accumulated in one round).
	cursor := 0
	for round := 0; ; round++ {
		cur := s.state.Load()
		if cur.tailLen-cursor <= reencodeFlipTail || round >= reencodeMaxRounds {
			break
		}
		target := cur.tailLen
		for ; cursor < target; cursor++ {
			if err := s.replayTailCode(shadow, cur, uint32(cur.tail[cursor])); err != nil {
				return err
			}
		}
		s.hook(1)
	}
	s.hook(2)

	// Flip: drain the remaining tail and publish the new epoch.
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	cur := s.state.Load()
	for ; cursor < cur.tailLen; cursor++ {
		if err := s.replayTailCode(shadow, cur, uint32(cur.tail[cursor])); err != nil {
			return err
		}
	}
	shadow.observer = cur.ix.observer
	s.publishLocked(shadow, cur.epoch+1, cur.encGen+1)
	mReencodes.Inc()
	mSwaps.Inc()
	return nil
}

func (s *Synced[V]) hook(stage int) {
	if s.testHook != nil {
		s.testHook(stage)
	}
}
