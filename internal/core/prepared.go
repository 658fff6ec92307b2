package core

import (
	"fmt"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/boolmin"
	"repro/internal/iostat"
	"repro/internal/obs"
)

// Prepared is a compiled selection: the reduced retrieval Boolean
// expression for an IN-list, bound to an Index or a Synced index.
// Preparing once and evaluating many times matches the paper's deployment
// model — the predefined selections well-defined encodings are built for
// are known up front, so their reduced retrieval functions can be
// computed once ("be reduced by human experts, and be verified with
// assistance of computers", Section 3.2) and reused.
//
// A Prepared bound to a Synced index transparently recompiles itself when
// the code space or don't-care set has changed since compilation (domain
// expansion, widening, NULL-code allocation) — including across live
// re-encoding flips, where the same values name different codes. One
// bound to an Index never sees a change.
type Prepared[V comparable] struct {
	load   func() *epochState[V] // the bound handle's current read state
	values []V

	mu       sync.Mutex
	compiled bool
	gen      uint64
	sel      compiledSel
}

// compiledSel is one compilation of a prepared selection. It is
// immutable once built: a concurrent recompile for a newer generation
// replaces it and never corrupts an evaluation in flight.
type compiledSel struct {
	expr  boolmin.Expr
	prog  *boolmin.Program
	codes []uint32
}

// Prepare compiles the selection "A IN values".
func (ix *Index[V]) Prepare(values []V) *Prepared[V] {
	st := ix.view()
	p := &Prepared[V]{load: func() *epochState[V] { return st }, values: append([]V(nil), values...)}
	p.compile(st)
	return p
}

// Prepare binds the selection "A IN values" to the live state; it
// compiles on first evaluation.
func (s *Synced[V]) Prepare(values []V) *Prepared[V] {
	return &Prepared[V]{load: s.state.Load, values: append([]V(nil), values...)}
}

func (p *Prepared[V]) compile(st *epochState[V]) {
	codes := st.ix.codesOf(p.values)
	expr := boolmin.Minimize(st.ix.K(), codes, st.ix.dontCares())
	p.sel = compiledSel{expr: expr, prog: boolmin.Compile(expr), codes: codes}
	p.gen = st.encGen
	p.compiled = true
}

// program loads the current state and returns the compilation matching
// its generation, recompiling if stale.
func (p *Prepared[V]) program() (*epochState[V], compiledSel) {
	st := p.load()
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case !p.compiled:
		p.compile(st)
	case p.gen != st.encGen:
		mPreparedRecompiles.Inc()
		if lg := obs.DefaultLogger(); lg.Enabled(obs.LevelDebug) {
			lg.Debug("prepared selection recompiled",
				obs.Int("values", int64(len(p.values))),
				obs.Int("stale_generation", int64(p.gen)),
				obs.Int("generation", int64(st.encGen)))
		}
		p.compile(st)
	default:
		mProgCacheHits.Inc()
	}
	return st, p.sel
}

// AccessCost returns the number of bitmap vectors an evaluation reads —
// the paper's c_e for this selection under the current encoding.
func (p *Prepared[V]) AccessCost() int {
	_, sel := p.program()
	return sel.expr.AccessCost()
}

// Eval evaluates the compiled selection against the current contents
// through the cached fused program.
func (p *Prepared[V]) Eval() (*bitvec.Vector, iostat.Stats) {
	st, sel := p.program()
	rows, stats := st.run(sel.prog, sel.codes)
	st.ix.observeSelection(p.values, stats)
	return rows, stats
}

// EvalInto is Eval with a caller-provided destination, fully overwritten:
// the zero-allocation steady-state path for repeated evaluation. On an
// Index dst must have length Len(); on a Synced index it behaves like
// Synced.EqInto.
func (p *Prepared[V]) EvalInto(dst *bitvec.Vector) iostat.Stats {
	st, sel := p.program()
	if st.epoch == 0 && dst.Len() != st.ix.n {
		panic(fmt.Sprintf("core: EvalInto destination has %d bits, index %d", dst.Len(), st.ix.n))
	}
	stats := st.runInto(sel.prog, sel.codes, dst)
	st.ix.observeSelection(p.values, stats)
	return stats
}

// String renders the compiled expression in the paper's notation.
func (p *Prepared[V]) String() string {
	_, sel := p.program()
	return sel.expr.String()
}
