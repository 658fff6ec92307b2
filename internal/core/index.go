// Package core implements the paper's primary contribution: the encoded
// bitmap index (EBI) of Definition 2.1. An EBI over an attribute A with
// cardinality m keeps k = ceil(log2 m') bitmap vectors (m' counts the
// artificial values for non-existing and NULL tuples when enabled), a
// one-to-one mapping from values to k-bit codes, and per-selection
// retrieval Boolean functions that are minimized ("logical reduction")
// before evaluation so that the number of vectors read — the paper's cost
// metric c_e — is as small as the encoding permits.
//
// Maintenance follows Section 2.2: appends without domain expansion touch
// only the k vector tails; appends with domain expansion either reuse a
// free code or widen the index by one vector. Per Theorem 2.1, code 0 is
// reserved for non-existing (deleted) tuples by default, which lets every
// selection over existing tuples skip the existence-mask AND that simple
// bitmap indexes must always pay.
package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/boolmin"
	"repro/internal/encoding"
	"repro/internal/obs"
	"repro/internal/reorder"
)

// Options configures Build.
type Options[V comparable] struct {
	// Mapping supplies a custom encoding (hierarchy, total-order
	// preserving, well-defined wrt a workload, ...). When nil, Build
	// derives one: either a workload-optimized encoding via
	// encoding.FindEncoding when Predicates are given, or the trivial
	// sequential encoding.
	Mapping *encoding.Mapping[V]
	// Predicates is the expected selection workload used to search for a
	// well-defined encoding when Mapping is nil.
	Predicates [][]V
	// Search tunes the encoding search (nil for defaults).
	Search *encoding.SearchOptions
	// DisableVoidReserve turns off Theorem 2.1's reservation of code 0
	// for non-existing tuples. Deletion is then unsupported.
	DisableVoidReserve bool
	// NullSupport reserves an artificial code for NULLs. It is forced on
	// when Build receives a non-nil isNull slice.
	NullSupport bool
	// DisableDontCares stops logical reduction from treating unassigned
	// codes as don't-care terms (footnote 3).
	DisableDontCares bool
	// Reorder, when non-nil, builds the index over the permuted row
	// order: row i of the index holds column[Reorder[i]]. It must be a
	// bijection on the column's row space (a reorder.Plan's Perm).
	// Queries then answer in reordered row ids; map results back with
	// reorder.MapToOriginal.
	Reorder []int
}

// Index is an encoded bitmap index over values of type V. It is an
// immutable snapshot: Build, BuildOrdered and Load construct one, and
// nothing changes it afterwards, so every read (Eq, EqInto, In,
// Prepare().Eval, ...) is safe for concurrent use. Synced is the mutable
// handle: each of its writes publishes a new snapshot.
type Index[V comparable] struct {
	mapping *encoding.Mapping[V]
	vectors []*bitvec.Vector // vectors[i] = B_i (LSB first)
	n       int              // tuple positions

	reserveVoid bool
	useDC       bool
	hasNullCode bool
	nullCode    uint32

	deleted int // number of voided rows (diagnostics)

	// generation counts code-space and don't-care changes (domain
	// expansion, widening, NULL-code allocation) made while the index is
	// private; progs, the per-code program cache, and dcs, the
	// don't-care set, are keyed by it.
	generation uint64
	progs      *progCache
	dcs        *dcCache

	// srcs mirrors vectors as fused-kernel operands; fitVectors
	// refreshes it wherever the vectors slice is replaced.
	srcs []bitvec.WordSource

	// observer, when non-nil, receives every value-selection evaluation
	// (see SelectionObserver); Synced.SetSelectionObserver installs it.
	observer SelectionObserver[V]
}

// derive returns a private index with ix's flags, row count and observer
// over the given mapping and vectors, with caches of its own. Every index
// is constructed through it.
func (ix *Index[V]) derive(mapping *encoding.Mapping[V], vectors []*bitvec.Vector) *Index[V] {
	c := *ix
	c.mapping, c.vectors = mapping, vectors
	c.progs, c.dcs = new(progCache), new(dcCache)
	c.fitVectors()
	return &c
}

// fitVectors extends the vectors with all-zero ones up to the mapping's
// width (widening) and refreshes the fused operands.
//
// Fresh slices: a writer's private copy of a published snapshot
// (publishableClone) starts from the snapshot's slices and shares its
// vectors, so fitVectors always allocates new vectors and srcs slices and
// never writes into a backing array a reader may hold. Bits are appended
// only to vectors no reader has seen (Build, materialize, a re-encoding
// shadow).
func (ix *Index[V]) fitVectors() {
	vecs := make([]*bitvec.Vector, ix.mapping.K())
	for i := copy(vecs, ix.vectors); i < len(vecs); i++ {
		vecs[i] = bitvec.New(ix.n)
	}
	ix.vectors = vecs
	ix.srcs = make([]bitvec.WordSource, len(vecs))
	for i, v := range vecs {
		ix.srcs[i] = v
	}
}

// Build constructs an index over the column. isNull may be nil; when given
// it marks NULL rows and implies NullSupport.
func Build[V comparable](column []V, isNull []bool, opt *Options[V]) (*Index[V], error) {
	_, sp := obs.StartSpan(context.Background(), "ebi.core.build")
	if sp != nil {
		sp.SetAttr("rows", len(column))
		defer func() { sp.End() }()
	}
	var o Options[V]
	if opt != nil {
		o = *opt
	}
	if isNull != nil && len(isNull) != len(column) {
		return nil, fmt.Errorf("core: column has %d rows but isNull has %d", len(column), len(isNull))
	}
	if o.Reorder != nil {
		if err := reorder.CheckPermutation(o.Reorder, len(column)); err != nil {
			return nil, err
		}
		column = reorder.Permute(column, o.Reorder)
		isNull = reorder.PermuteBools(isNull, o.Reorder)
	}
	for _, b := range isNull {
		if b {
			o.NullSupport = true
			break
		}
	}

	// Distinct domain in first-appearance order.
	var domain []V
	seen := make(map[V]bool)
	for i, v := range column {
		if isNull != nil && isNull[i] {
			continue
		}
		if !seen[v] {
			seen[v] = true
			domain = append(domain, v)
		}
	}

	ix, err := newIndex(domain, &o)
	if err != nil {
		return nil, err
	}
	if err := ix.appendColumn(column, isNull); err != nil {
		return nil, err
	}
	return ix, nil
}

// newIndex constructs an empty private index over the given domain.
func newIndex[V comparable](domain []V, o *Options[V]) (*Index[V], error) {
	var mapping *encoding.Mapping[V]
	switch {
	case o.Mapping != nil:
		mapping = o.Mapping.Clone()
		for _, v := range domain {
			if !mapping.Contains(v) {
				return nil, fmt.Errorf("core: custom mapping is missing value %v", v)
			}
		}
	case len(domain) == 0:
		mapping = encoding.NewMapping[V](0)
	case len(o.Predicates) > 0:
		var so encoding.SearchOptions
		if o.Search != nil {
			so = *o.Search
		}
		// Make the search itself avoid code 0 so Theorem 2.1's void
		// reservation does not disturb the optimized structure afterwards.
		so.ReserveZeroCode = !o.DisableVoidReserve
		m, err := encoding.FindEncoding(domain, o.Predicates, &so)
		if err != nil {
			return nil, err
		}
		mapping = m
	default:
		mapping = encoding.MappingOf(domain)
	}

	proto := &Index[V]{reserveVoid: !o.DisableVoidReserve, useDC: !o.DisableDontCares}
	ix := proto.derive(mapping, nil)
	if ix.reserveVoid {
		if err := ix.reserveZero(); err != nil {
			return nil, err
		}
	}
	if o.NullSupport {
		ix.enableNull()
	}
	return ix, nil
}

// reserveZero frees code 0 for void tuples: if a value holds it, the value
// is rebound to a free code, widening the index by one bit if the code
// space is full. (Theorem 2.1's precondition.)
func (ix *Index[V]) reserveZero() error {
	holder, taken := ix.mapping.ValueOf(0)
	if !taken {
		return nil
	}
	code := ix.freeCode()
	ix.invalidateCache()
	return ix.mapping.Rebind(holder, code)
}

// enableNull allocates an artificial code for NULL tuples.
func (ix *Index[V]) enableNull() {
	if ix.hasNullCode {
		return
	}
	ix.nullCode = ix.freeCode()
	ix.hasNullCode = true
	ix.invalidateCache()
}

// freeValueCodes lists codes usable for new values: unassigned, not the
// void code, not the NULL code.
func (ix *Index[V]) freeValueCodes() []uint32 {
	var out []uint32
	for _, c := range ix.mapping.FreeCodes() {
		if ix.reserveVoid && c == 0 {
			continue
		}
		if ix.hasNullCode && c == ix.nullCode {
			continue
		}
		out = append(out, c)
	}
	return out
}

// freeCode returns the first code usable for a new value, widening the
// index when none is left.
func (ix *Index[V]) freeCode() uint32 {
	free := ix.freeValueCodes()
	if len(free) == 0 {
		ix.widen()
		free = ix.freeValueCodes()
	}
	return free[0]
}

// widen grows the code space by one bit: the paper's domain-expansion case
// (b). Existing codes zero-extend, so all existing retrieval functions
// implicitly gain an ANDed B'_new literal; a new all-zero vector is added.
func (ix *Index[V]) widen() {
	mWidens.Inc()
	ix.mapping = ix.mapping.Widen(ix.mapping.K() + 1)
	ix.fitVectors()
	ix.invalidateCache()
}

// K returns the number of bitmap vectors (h = ceil(log2 m') in the
// paper's cost comparison).
func (ix *Index[V]) K() int { return ix.mapping.K() }

// Len returns the number of tuple positions.
func (ix *Index[V]) Len() int { return ix.n }

// Cardinality returns the number of mapped attribute values.
func (ix *Index[V]) Cardinality() int { return ix.mapping.Len() }

// Deleted returns how many rows have been voided.
func (ix *Index[V]) Deleted() int { return ix.deleted }

// Mapping returns a copy of the index's mapping table.
func (ix *Index[V]) Mapping() *encoding.Mapping[V] { return ix.mapping.Clone() }

// Vector exposes bitmap vector B_i for group-set composition and tests.
func (ix *Index[V]) Vector(i int) *bitvec.Vector { return ix.vectors[i] }

// SizeBytes returns the bit-payload size: the paper's |T| x h / 8.
func (ix *Index[V]) SizeBytes() int {
	total := 0
	for _, v := range ix.vectors {
		total += v.SizeBytes()
	}
	return total
}

// AverageSparsity returns the mean zero fraction across the k vectors;
// the paper's claim is ~1/2 independent of cardinality.
func (ix *Index[V]) AverageSparsity() float64 {
	if len(ix.vectors) == 0 {
		return 0
	}
	total := 0.0
	for _, v := range ix.vectors {
		total += v.Sparsity()
	}
	return total / float64(len(ix.vectors))
}

// The private builder below handles both maintenance cases of Section
// 2.2 on an index no reader holds yet: a known value only appends k
// bits; an unknown value expands the domain, reusing a free code when
// ceil(log2 m) is unchanged (Figure 2a) and widening the index by a new
// bitmap vector otherwise (Figure 2b). Only appendColumn, the build
// path, counts appends: Synced counts each tuple when it first lands, and
// its replays into private copies are not new tuples.

// appendColumn appends a column's rows and counts them as appends.
func (ix *Index[V]) appendColumn(column []V, isNull []bool) error {
	for i, v := range column {
		if isNull != nil && isNull[i] {
			ix.appendNull()
			continue
		}
		if err := ix.appendValue(v); err != nil {
			return err
		}
	}
	mAppends.Add(uint64(len(column)))
	return nil
}

// appendCode appends one tuple whose encoded value is code.
func (ix *Index[V]) appendCode(code uint32) {
	ix.n++
	for i, vec := range ix.vectors {
		vec.Append(code&(1<<uint(i)) != 0)
	}
}

// appendValue appends a tuple with value v.
func (ix *Index[V]) appendValue(v V) error {
	code, err := ix.codeFor(v)
	if err != nil {
		return err
	}
	ix.appendCode(code)
	return nil
}

// appendNull appends a NULL tuple, allocating the NULL code on first use.
func (ix *Index[V]) appendNull() {
	ix.enableNull()
	ix.appendCode(ix.nullCode)
}

// codeFor returns v's code, first mapping v to a free code when it is new
// to the domain.
func (ix *Index[V]) codeFor(v V) (uint32, error) {
	if code, ok := ix.mapping.CodeOf(v); ok {
		return code, nil
	}
	code := ix.freeCode()
	if err := ix.mapping.Add(v, code); err != nil {
		return 0, err
	}
	// The new value consumed a free code, shrinking the don't-care set;
	// memoized expressions may now cover it.
	ix.invalidateCache()
	return code, nil
}

// voidRow voids a tuple by overwriting its code with 0 (Theorem 2.1's
// convention), so subsequent selections skip it with no existence mask.
func (ix *Index[V]) voidRow(row int) error {
	if !ix.reserveVoid {
		return fmt.Errorf("core: deletion requires the void-code reservation (Theorem 2.1)")
	}
	if row < 0 || row >= ix.n {
		return fmt.Errorf("core: row %d out of range [0,%d)", row, ix.n)
	}
	if ix.CodeAt(row) == 0 {
		return nil // already void; no value or NULL code is ever 0
	}
	for _, vec := range ix.vectors {
		vec.Clear(row)
	}
	ix.deleted++
	return nil
}

// dcCache memoizes an index's don't-care set for one code-space
// generation. Every index gets its own from derive. Concurrent readers
// may fill it at once: each computes the same set and the last store
// wins.
type dcCache struct{ cur atomic.Pointer[dcSet] }

type dcSet struct {
	gen   uint64
	codes []uint32 // ascending; shared by every caller, never mutated
}

// dontCares returns the codes logical reduction may treat as don't-cares:
// unassigned codes excluding the void and NULL codes (those can occur in
// rows, so an expression must stay correct on them). The set is computed
// once per generation; callers must not modify it.
func (ix *Index[V]) dontCares() []uint32 {
	if !ix.useDC {
		return nil
	}
	if s := ix.dcs.cur.Load(); s != nil && s.gen == ix.generation {
		return s.codes
	}
	codes := ix.freeValueCodes()
	ix.dcs.cur.Store(&dcSet{gen: ix.generation, codes: codes})
	return codes
}

// ExprFor returns the reduced retrieval Boolean expression for the
// selection "A IN values". Values outside the domain are ignored (they
// can match no tuple). The zero-length on-set yields the constant-false
// expression.
func (ix *Index[V]) ExprFor(values []V) boolmin.Expr {
	return boolmin.Minimize(ix.K(), ix.codesOf(values), ix.dontCares())
}

// invalidateCache retires every memoized program and prepared
// compilation; called when the code space or the don't-care set changes.
func (ix *Index[V]) invalidateCache() { ix.generation++ }

// DecodeRow returns the value at a row. ok is false for void or NULL rows
// (isNull distinguishes the two).
func (ix *Index[V]) DecodeRow(row int) (v V, isNull, ok bool) {
	code := ix.CodeAt(row)
	if ix.hasNullCode && code == ix.nullCode {
		return v, true, false
	}
	val, found := ix.mapping.ValueOf(code)
	if !found {
		return v, false, false
	}
	return val, false, true
}

// CodeAt reconstructs the k-bit code of a row from the vectors.
func (ix *Index[V]) CodeAt(row int) uint32 {
	var code uint32
	for i, vec := range ix.vectors {
		if vec.Get(row) {
			code |= 1 << uint(i)
		}
	}
	return code
}

// Values returns the domain values ordered by code.
func (ix *Index[V]) Values() []V { return ix.mapping.Values() }

// CheckInvariants validates internal consistency: every row's code is a
// mapped value code, the NULL code, or 0 (void); vector lengths agree.
func (ix *Index[V]) CheckInvariants() error {
	for i, vec := range ix.vectors {
		if vec.Len() != ix.n {
			return fmt.Errorf("core: vector %d has %d bits, want %d", i, vec.Len(), ix.n)
		}
	}
	voidRows := 0
	for row := 0; row < ix.n; row++ {
		code := ix.CodeAt(row)
		if _, ok := ix.mapping.ValueOf(code); ok {
			continue
		}
		if ix.hasNullCode && code == ix.nullCode {
			continue
		}
		if ix.reserveVoid && code == 0 {
			voidRows++
			continue
		}
		return fmt.Errorf("core: row %d carries unmapped code %0*b", row, ix.K(), code)
	}
	if voidRows < ix.deleted {
		return fmt.Errorf("core: %d rows voided but only %d zero codes found", ix.deleted, voidRows)
	}
	return nil
}

// DescribeSelection renders the reduced retrieval expression for a value
// list in the paper's notation, for demos and tests.
func (ix *Index[V]) DescribeSelection(values []V) string {
	return ix.ExprFor(values).String()
}
