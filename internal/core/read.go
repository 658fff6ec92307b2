package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/boolmin"
	"repro/internal/iostat"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// The read path. Every selection on an encoded bitmap index is one
// operation (Section 2.2): map the values to codes, reduce the retrieval
// function, and evaluate it over the k vectors. Index and Synced share
// one evaluator over an epochState — a base Index snapshot plus the codes
// appended after it. A plain Index reads as its own empty-tail state;
// Synced evaluates the state it loaded atomically, so extending each
// result across the append tail is the only read step specific to it.
//
// Stats parity: the fused program's accounting is analytic — VectorsRead
// and BoolOps depend only on the expression, WordsRead is VectorsRead
// dense words — so a state with a tail reports exactly what a plain
// Index holding the same rows would, and the predictions below equal
// the measured stats of the same selection on the same state. The audit
// plane (internal/audit) re-checks sampled live queries against them.

// progCache memoizes compiled single-code fused programs (the Eq hot
// path) for one encoding generation. Programs are pure functions of (k,
// code, don't-cares), all pinned by the generation, so entries need no
// further validation, and the table is unbounded within a generation.
type progCache struct{ cur atomic.Pointer[progTable] }

type progTable struct {
	gen uint64
	m   sync.Map // uint32 code -> *boolmin.Program
}

// table returns the cache table for generation gen, replacing an older
// table wholesale (the invalidation for domain expansion, widening, NULL
// allocation and re-encoding flips). It returns nil when a newer
// generation is already cached: a reader holding an older-generation
// state compiles uncached rather than poisoning the cache for current
// readers.
func (c *progCache) table(gen uint64) *progTable {
	t := c.cur.Load()
	for t == nil || t.gen < gen {
		c.cur.CompareAndSwap(t, &progTable{gen: gen})
		t = c.cur.Load()
	}
	if t.gen != gen {
		return nil
	}
	return t
}

// view returns the index as a read state: no tail, keyed by the index's
// own code-space generation.
func (ix *Index[V]) view() *epochState[V] {
	return &epochState[V]{ix: ix, encGen: ix.generation}
}

// len returns the state's logical row count.
func (st *epochState[V]) len() int { return st.ix.n + st.tailLen }

// codesOf maps values to codes, dropping values outside the domain (they
// can match no tuple).
func (ix *Index[V]) codesOf(values []V) []uint32 {
	var codes []uint32
	for _, v := range values {
		if c, ok := ix.mapping.CodeOf(v); ok {
			codes = append(codes, c)
		}
	}
	return codes
}

// compileCodes reduces the retrieval function of a code set and compiles
// it to a fused program.
func (ix *Index[V]) compileCodes(codes []uint32) *boolmin.Program {
	return boolmin.Compile(boolmin.Minimize(ix.K(), codes, ix.dontCares()))
}

// program returns the compiled program selecting one code under st's
// encoding, through c when st is its current generation.
func (st *epochState[V]) program(c *progCache, code uint32) *boolmin.Program {
	t := c.table(st.encGen)
	if t != nil {
		if p, ok := t.m.Load(code); ok {
			mExprCacheHits.Inc()
			mProgCacheHits.Inc()
			return p.(*boolmin.Program)
		}
	}
	mExprCacheMisses.Inc()
	p := st.ix.compileCodes([]uint32{code})
	if t != nil {
		t.m.Store(code, p)
	}
	return p
}

// evalProgram runs a compiled fused program over the base vectors into a
// fresh row set.
func (ix *Index[V]) evalProgram(p *boolmin.Program) (*bitvec.Vector, iostat.Stats) {
	dst := bitvec.New(ix.n)
	return dst, ix.evalProgramInto(p, dst)
}

// evalProgramInto runs a compiled fused program into a caller-provided row
// set of length Len(), allocating nothing. The destination always has the
// index's length, so the k=0 degenerate shapes (constant expressions over
// an empty code space) come out sized correctly with no special casing.
func (ix *Index[V]) evalProgramInto(p *boolmin.Program, dst *bitvec.Vector) iostat.Stats {
	mEvals.Inc()
	if ix.reserveVoid {
		mVoidSkips.Inc()
	}
	return statsOf(p.EvalInto(dst, ix.srcs))
}

// evalProgramParallel is evalProgram with segmented parallel evaluation
// on the shared worker pool, per-worker spans nested under sp (nil for
// none). degree <= 1 is the sequential path exactly. Rows and stats are
// identical either way: the paper's Section 3 cost model counts vectors
// read, which segmentation does not change (see docs/parallelism.md).
func (ix *Index[V]) evalProgramParallel(p *boolmin.Program, degree int, sp *obs.Span) (*bitvec.Vector, iostat.Stats) {
	if degree <= 1 {
		return ix.evalProgram(p)
	}
	mEvals.Inc()
	if ix.reserveVoid {
		mVoidSkips.Inc()
	}
	mParallelEvals.Inc()
	dst := bitvec.New(ix.n)
	return dst, statsOf(p.EvalParallelInto(dst, ix.vectors, parallel.Default(), degree, sp))
}

func statsOf(res boolmin.EvalResult) iostat.Stats {
	return iostat.Stats{VectorsRead: res.VectorsRead, WordsRead: res.WordsRead, BoolOps: res.Ops}
}

// extendTail grows a base-snapshot result vector across the state's tail,
// setting the rows whose appended code matches, and extends the analytic
// stats to the full logical length: each vector the expression read is a
// dense operand, so the tail contributes exactly the dense word delta per
// vector read. BoolOps and VectorsRead are length-independent.
func (st *epochState[V]) extendTail(rows *bitvec.Vector, stats *iostat.Stats, match func(code uint32) bool) {
	n0 := st.ix.n
	n := n0 + st.tailLen
	if rows.Len() < n {
		rows.Grow(n)
	}
	for i := 0; i < st.tailLen; i++ {
		if match(uint32(st.tail[i])) {
			rows.Set(n0 + i)
		}
	}
	stats.WordsRead += stats.VectorsRead * (wordsFor(n) - wordsFor(n0))
}

// extendCodes is extendTail for a selection of a code set.
func (st *epochState[V]) extendCodes(rows *bitvec.Vector, stats *iostat.Stats, codes []uint32) {
	switch {
	case st.tailLen == 0:
	case len(codes) == 1:
		c0 := codes[0]
		st.extendTail(rows, stats, func(c uint32) bool { return c == c0 })
	default:
		set := make(map[uint32]bool, len(codes))
		for _, c := range codes {
			set[c] = true
		}
		st.extendTail(rows, stats, func(c uint32) bool { return set[c] })
	}
}

// run evaluates a program selecting codes over the whole state.
func (st *epochState[V]) run(p *boolmin.Program, codes []uint32) (*bitvec.Vector, iostat.Stats) {
	rows, stats := st.ix.evalProgram(p)
	st.extendCodes(rows, &stats, codes)
	return rows, stats
}

// runInto is run into dst, fully overwritten. With no tail and a dst of
// the base length it allocates nothing; otherwise dst's contents are
// replaced, so a concurrent append degrades the allocation guarantee but
// never correctness.
func (st *epochState[V]) runInto(p *boolmin.Program, codes []uint32, dst *bitvec.Vector) iostat.Stats {
	if st.tailLen == 0 && dst.Len() == st.ix.n {
		return st.ix.evalProgramInto(p, dst)
	}
	rows, stats := st.run(p, codes)
	*dst = *rows
	return stats
}

// eq selects one value through the program cache c.
func (st *epochState[V]) eq(c *progCache, v V) (*bitvec.Vector, iostat.Stats) {
	code, ok := st.ix.mapping.CodeOf(v)
	if !ok {
		return bitvec.New(st.len()), iostat.Stats{}
	}
	codes := [1]uint32{code}
	rows, stats := st.run(st.program(c, code), codes[:])
	st.ix.observeSelection([]V{v}, stats)
	return rows, stats
}

// eqInto is eq into dst (see runInto).
func (st *epochState[V]) eqInto(c *progCache, v V, dst *bitvec.Vector) iostat.Stats {
	code, ok := st.ix.mapping.CodeOf(v)
	if !ok {
		if dst.Len() == st.len() {
			dst.Reset()
		} else {
			*dst = *bitvec.New(st.len())
		}
		return iostat.Stats{}
	}
	codes := [1]uint32{code}
	stats := st.runInto(st.program(c, code), codes[:], dst)
	st.ix.observeSelection([]V{v}, stats)
	return stats
}

// in selects a value list, minimizing afresh; degree > 1 evaluates with
// segmented parallelism, worker spans nested under sp.
func (st *epochState[V]) in(values []V, degree int, sp *obs.Span) (*bitvec.Vector, iostat.Stats) {
	codes := st.ix.codesOf(values)
	rows, stats := st.ix.evalProgramParallel(st.ix.compileCodes(codes), degree, sp)
	st.extendCodes(rows, &stats, codes)
	st.ix.observeSelection(values, stats)
	return rows, stats
}

// notIn selects the existing, non-NULL rows outside the value list.
// Because void is 0 and never part of a value code set, the complement
// must explicitly exclude void and NULL codes.
func (st *epochState[V]) notIn(values []V) (*bitvec.Vector, iostat.Stats) {
	excluded := make(map[uint32]bool, len(values)+2)
	for _, c := range st.ix.codesOf(values) {
		excluded[c] = true
	}
	var codes []uint32
	var included []V
	for _, v := range st.ix.mapping.Values() {
		c, _ := st.ix.mapping.CodeOf(v)
		if !excluded[c] {
			codes = append(codes, c)
			included = append(included, v)
		}
	}
	rows, stats := st.run(st.ix.compileCodes(codes), codes)
	// The complement is what the reduced expression actually selects, so
	// that is what the observer (and any re-encoding workload built from
	// it) records.
	st.ix.observeSelection(included, stats)
	return rows, stats
}

// isNull selects the NULL rows.
func (st *epochState[V]) isNull() (*bitvec.Vector, iostat.Stats) {
	if !st.ix.hasNullCode {
		return bitvec.New(st.len()), iostat.Stats{}
	}
	codes := []uint32{st.ix.nullCode}
	return st.run(st.ix.compileCodes(codes), codes)
}

// existing selects all non-void, non-NULL rows. With the void-zero
// reservation it needs no Boolean minimization at all: a row exists iff
// its code is nonzero (the OR of all vectors) and is not the NULL code.
func (st *epochState[V]) existing() (*bitvec.Vector, iostat.Stats) {
	ix := st.ix
	var stats iostat.Stats
	acc := bitvec.New(ix.n)
	if ix.reserveVoid {
		for _, vec := range ix.vectors {
			stats.VectorsRead++
			stats.WordsRead += vec.Words()
			stats.BoolOps++
			acc.Or(vec)
		}
	} else {
		// No deletions are possible without the reservation; every row
		// exists unless NULL.
		acc.Fill()
	}
	if ix.hasNullCode {
		// The NULL min-term unminimized (Definition 2.1): the accounting
		// charges its full k-literal conjunction.
		nulls, res := ix.evalProgram(boolmin.Compile(boolmin.RetrievalFunction(ix.K(), ix.nullCode)))
		if !ix.reserveVoid {
			// The OR loop did not run, so the NULL min-term's reads are
			// the only ones.
			stats.VectorsRead += res.VectorsRead
			stats.WordsRead += res.WordsRead
		}
		stats.BoolOps += res.BoolOps + 1
		acc.AndNot(nulls)
	}
	if st.tailLen > 0 {
		st.extendTail(acc, &stats, func(c uint32) bool {
			return !(ix.hasNullCode && c == ix.nullCode) && !(ix.reserveVoid && c == 0)
		})
	}
	return acc, stats
}

// predict turns a compiled program into the Stats its evaluation over
// the state reports.
func (st *epochState[V]) predict(p *boolmin.Program) iostat.Stats {
	v, w, o := p.PredictStats(wordsFor(st.len()))
	return iostat.Stats{VectorsRead: v, WordsRead: w, BoolOps: o}
}

// predictIn predicts eq (single value) or in (value list).
func (st *epochState[V]) predictIn(values []V) iostat.Stats {
	return st.predict(st.ix.compileCodes(st.ix.codesOf(values)))
}

// predictIsNull predicts isNull: zero when no NULL code was ever
// allocated.
func (st *epochState[V]) predictIsNull() iostat.Stats {
	if !st.ix.hasNullCode {
		return iostat.Stats{}
	}
	return st.predict(st.ix.compileCodes([]uint32{st.ix.nullCode}))
}

// predictGen stamps the prediction basis: epoch (re-encoding flips),
// encoding generation (code-space changes) and logical length (appends)
// all fold in.
func (st *epochState[V]) predictGen() uint64 {
	return st.epoch<<40 ^ st.encGen<<24 ^ uint64(st.len())
}

// Eq returns the rows where the attribute equals v. The cost is the full
// min-term: k vectors (c_e's single-value case), possibly fewer when
// don't-care codes let the min-term shed literals. The compiled program
// is memoized per code.
func (ix *Index[V]) Eq(v V) (*bitvec.Vector, iostat.Stats) {
	return ix.view().eq(ix.progs, v)
}

// EqInto is Eq with a caller-provided destination: dst (length Len(),
// fully overwritten) receives the rows where the attribute equals v. On a
// warmed index — the value's program already memoized — it performs zero
// allocations, which is the steady-state point-query path.
func (ix *Index[V]) EqInto(v V, dst *bitvec.Vector) iostat.Stats {
	if dst.Len() != ix.n {
		panic(fmt.Sprintf("core: EqInto destination has %d bits, index %d", dst.Len(), ix.n))
	}
	return ix.view().eqInto(ix.progs, v, dst)
}

// In returns the rows where the attribute is in the value list, evaluating
// the reduced retrieval expression — the paper's range-search path where
// c_e <= ceil(log2 m) regardless of the list width δ.
func (ix *Index[V]) In(values []V) (*bitvec.Vector, iostat.Stats) {
	return ix.InParallel(values, 1, nil)
}

// InParallel is In with the bulk Boolean work fanned out across fixed
// 64Ki-bit segments by up to degree executors (further bounded by the
// pool to min(GOMAXPROCS, segments)); per-worker trace spans nest under
// sp, which may be nil. Rows and stats equal In's exactly.
func (ix *Index[V]) InParallel(values []V, degree int, sp *obs.Span) (*bitvec.Vector, iostat.Stats) {
	return ix.view().in(values, degree, sp)
}

// NotIn returns existing, non-NULL rows outside the value list.
func (ix *Index[V]) NotIn(values []V) (*bitvec.Vector, iostat.Stats) {
	return ix.view().notIn(values)
}

// IsNull returns the NULL rows.
func (ix *Index[V]) IsNull() (*bitvec.Vector, iostat.Stats) {
	return ix.view().isNull()
}

// Existing returns all non-void, non-NULL rows.
func (ix *Index[V]) Existing() (*bitvec.Vector, iostat.Stats) {
	return ix.view().existing()
}

// PredictSelectionStats returns the exact Stats Eq (single value) or In
// (value list) would report for the current encoding, computed from the
// encoding alone (the Theorem 2.2/2.3 accounting). Values missing from
// the domain are dropped, mirroring ExprFor; an empty effective list
// predicts zero stats, matching the unknown-value fast path.
func (ix *Index[V]) PredictSelectionStats(values []V) iostat.Stats {
	return ix.view().predictIn(values)
}

// PredictIsNullStats returns the exact Stats IsNull would report.
func (ix *Index[V]) PredictIsNullStats() iostat.Stats {
	return ix.view().predictIsNull()
}

// PredictGen stamps the basis of predictions: any mutation that could
// change PredictSelectionStats for some value changes the stamp, so the
// audit plane can tell "prediction basis moved" from "engine diverged".
func (ix *Index[V]) PredictGen() uint64 {
	return ix.view().predictGen()
}

// Eq returns rows equal to v through the program cache, keyed by encoding
// generation so a live re-encoding can never serve a program minimized
// under the old code assignment.
func (s *Synced[V]) Eq(v V) (*bitvec.Vector, iostat.Stats) {
	return s.state.Load().eq(&s.progs, v)
}

// EqInto is Eq with a caller-provided destination, fully overwritten.
// When the index is quiescent (no outstanding tail) and dst matches the
// snapshot length it is the zero-allocation steady-state path; otherwise
// dst's contents are replaced.
func (s *Synced[V]) EqInto(v V, dst *bitvec.Vector) iostat.Stats {
	return s.state.Load().eqInto(&s.progs, v, dst)
}

// In returns rows matching the value list.
func (s *Synced[V]) In(values []V) (*bitvec.Vector, iostat.Stats) {
	return s.state.Load().in(values, 1, nil)
}

// InParallel is Index.InParallel against one atomically loaded epoch
// snapshot: the fork/join runs entirely over its immutable base vectors,
// then the result is extended across its tail, so concurrent appends or
// a live re-encoding flip never tear or block the evaluation.
func (s *Synced[V]) InParallel(values []V, degree int, sp *obs.Span) (*bitvec.Vector, iostat.Stats) {
	return s.state.Load().in(values, degree, sp)
}

// NotIn returns existing rows outside the value list.
func (s *Synced[V]) NotIn(values []V) (*bitvec.Vector, iostat.Stats) {
	return s.state.Load().notIn(values)
}

// IsNull returns NULL rows.
func (s *Synced[V]) IsNull() (*bitvec.Vector, iostat.Stats) { return s.state.Load().isNull() }

// Existing returns non-void, non-NULL rows.
func (s *Synced[V]) Existing() (*bitvec.Vector, iostat.Stats) { return s.state.Load().existing() }

// PredictSelectionStats is Index.PredictSelectionStats over one atomic
// snapshot, so the prediction stays consistent while appends and
// re-encoding flips race it.
func (s *Synced[V]) PredictSelectionStats(values []V) iostat.Stats {
	return s.state.Load().predictIn(values)
}

// PredictIsNullStats is Index.PredictIsNullStats over one atomic snapshot.
func (s *Synced[V]) PredictIsNullStats() iostat.Stats { return s.state.Load().predictIsNull() }

// PredictGen stamps the basis of Synced predictions.
func (s *Synced[V]) PredictGen() uint64 { return s.state.Load().predictGen() }
