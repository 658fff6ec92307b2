package core

import (
	"cmp"
	"fmt"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/encoding"
	"repro/internal/iostat"
)

// OrderedIndex is an encoded bitmap index whose mapping is total-order
// preserving (Section 2.3), so range predicates "lo <= A <= hi" evaluate
// directly on the bitmap vectors with the O'Neil–Quass MSB-first
// comparison pass instead of being rewritten into IN-lists.
type OrderedIndex[V cmp.Ordered] struct {
	ix     *Index[V]
	sorted []V // domain in ascending value order
}

// BuildOrdered constructs an order-preserving encoded bitmap index over
// the column. favored, when non-empty, lists IN-subdomains to optimize the
// encoding for (the paper's Figure 6 construction); the order-preserving
// property always holds regardless.
func BuildOrdered[V cmp.Ordered](column []V, favored [][]V, searchOpt *encoding.SearchOptions) (*OrderedIndex[V], error) {
	seen := make(map[V]bool)
	var domain []V
	for _, v := range column {
		if !seen[v] {
			seen[v] = true
			domain = append(domain, v)
		}
	}
	if len(domain) == 0 {
		return nil, fmt.Errorf("core: empty column")
	}
	sort.Slice(domain, func(i, j int) bool { return domain[i] < domain[j] })

	// Code 0 stays reserved for void tuples (Theorem 2.1), so the search
	// runs with ReserveZeroCode and value codes start at 1.
	k := encoding.BitsFor(len(domain) + 1)
	var mapping *encoding.Mapping[V]
	if len(favored) > 0 {
		// One spare bit gives the optimizer don't-care room (footnote 3);
		// without it, a favored subdomain often cannot reach a subcube
		// once code 0 is off limits.
		if k2 := encoding.BitsFor(len(domain)) + 1; k2 > k {
			k = k2
		}
		var so encoding.SearchOptions
		if searchOpt != nil {
			so = *searchOpt
		}
		so.ReserveZeroCode = true
		if !so.UseDontCares {
			so.UseDontCares = true
		}
		m, err := encoding.OptimizeOrderPreserving(domain, favored, k, &so)
		if err != nil {
			return nil, err
		}
		mapping = m
	} else {
		mapping = encoding.NewMapping[V](k)
		for i, v := range domain {
			mapping.MustAdd(v, uint32(i+1))
		}
	}

	ix, err := newIndex(domain, &Options[V]{Mapping: mapping})
	if err != nil {
		return nil, err
	}
	if err := ix.appendColumn(column, nil); err != nil {
		return nil, err
	}
	return &OrderedIndex[V]{ix: ix, sorted: domain}, nil
}

// Index exposes the underlying encoded bitmap index (for Eq, In,
// aggregates, group sets).
func (oi *OrderedIndex[V]) Index() *Index[V] { return oi.ix }

// Len returns the number of rows.
func (oi *OrderedIndex[V]) Len() int { return oi.ix.Len() }

// K returns the number of bitmap vectors.
func (oi *OrderedIndex[V]) K() int { return oi.ix.K() }

// codeBounds translates a value range into a code range. ok is false when
// the range selects nothing.
func (oi *OrderedIndex[V]) codeBounds(lo, hi V) (cl, ch uint32, ok bool) {
	i := sort.Search(len(oi.sorted), func(i int) bool { return oi.sorted[i] >= lo })
	j := sort.Search(len(oi.sorted), func(i int) bool { return oi.sorted[i] > hi })
	if i >= j {
		return 0, 0, false
	}
	cl, _ = oi.ix.mapping.CodeOf(oi.sorted[i])
	ch, _ = oi.ix.mapping.CodeOf(oi.sorted[j-1])
	return cl, ch, true
}

// Range returns rows with lo <= value <= hi using one MSB-to-LSB pass per
// bound over the k vectors (cost <= 2k vectors), the algorithm Section 4
// says carries over from bit-sliced indexes under total-order preserving
// encodings. Void rows (code 0) are excluded for free because value codes
// start at 1.
func (oi *OrderedIndex[V]) Range(lo, hi V) (*bitvec.Vector, iostat.Stats) {
	var st iostat.Stats
	cl, ch, ok := oi.codeBounds(lo, hi)
	if !ok {
		return bitvec.New(oi.ix.Len()), st
	}
	// lowCode/highCode bracket every code that can occur in a row: value
	// codes, the NULL code, and 0 when any row has been voided. A
	// comparison pass is skipped when its bound does not constrain that
	// bracket.
	lowCode, _ := oi.ix.mapping.CodeOf(oi.sorted[0])
	highCode, _ := oi.ix.mapping.CodeOf(oi.sorted[len(oi.sorted)-1])
	if oi.ix.hasNullCode {
		if oi.ix.nullCode < lowCode {
			lowCode = oi.ix.nullCode
		}
		if oi.ix.nullCode > highCode {
			highCode = oi.ix.nullCode
		}
	}
	if oi.ix.deleted > 0 {
		lowCode = 0
	}
	var rows *bitvec.Vector
	if ch >= highCode {
		rows = bitvec.New(oi.ix.Len())
		rows.Fill()
	} else {
		ltHi, eqHi, s1 := oi.cmpCode(ch)
		st.Add(s1)
		rows = ltHi.Or(eqHi)
		st.BoolOps++
	}
	if cl > lowCode {
		ltLo, _, s2 := oi.cmpCode(cl)
		st.Add(s2)
		st.BoolOps++
		rows.AndNot(ltLo)
	}
	// Codes strictly between value codes may be unassigned or the NULL
	// code; mask those rows out if any fall inside the bounds.
	if oi.ix.hasNullCode && oi.ix.nullCode >= cl && oi.ix.nullCode <= ch {
		nulls, s3 := oi.ix.IsNull()
		st.Add(s3)
		st.BoolOps++
		rows.AndNot(nulls)
	}
	return rows, st
}

// RangeViaReduction answers the same query by rewriting the range into an
// IN-list and minimizing the retrieval expression — the paper's default
// path, used by the benchmarks to compare against the comparison-pass
// algorithm.
func (oi *OrderedIndex[V]) RangeViaReduction(lo, hi V) (*bitvec.Vector, iostat.Stats) {
	i := sort.Search(len(oi.sorted), func(i int) bool { return oi.sorted[i] >= lo })
	j := sort.Search(len(oi.sorted), func(i int) bool { return oi.sorted[i] > hi })
	if i >= j {
		return bitvec.New(oi.ix.Len()), iostat.Stats{}
	}
	return oi.ix.In(oi.sorted[i:j])
}

// cmpCode computes rows with code < c and code == c in one MSB-first pass.
func (oi *OrderedIndex[V]) cmpCode(c uint32) (lt, eq *bitvec.Vector, st iostat.Stats) {
	n := oi.ix.Len()
	eq = bitvec.New(n)
	eq.Fill()
	lt = bitvec.New(n)
	for i := oi.ix.K() - 1; i >= 0; i-- {
		vec := oi.ix.vectors[i]
		st.VectorsRead++
		st.WordsRead += vec.Words()
		if c&(1<<uint(i)) != 0 {
			lt.Or(bitvec.AndNot(eq, vec))
			eq.And(vec)
			st.BoolOps += 3
		} else {
			eq.AndNot(vec)
			st.BoolOps++
		}
	}
	return lt, eq, st
}
