// Package boolmin implements the "logical reduction" of retrieval Boolean
// functions from Section 2.2 of Wu & Buchmann (ICDE 1998).
//
// A retrieval function for a selection "A IN {v0..v_{n-1}}" starts as a sum
// of k-variable min-terms, one per selected value (k = number of bitmap
// vectors). Minimizing that sum of products — here by generating the
// prime implicants that cover the on-set, don't-care terms included
// (footnote 3 of the paper), and selecting a cover among them — shrinks the number of *distinct* bitmap vectors the expression
// references, which is the paper's cost metric for query processing
// (c_e = number of bitmap vectors accessed after logical reduction).
package boolmin

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// MaxVars bounds the number of Boolean variables (bitmap vectors) an
// expression may reference. 30 bits keeps every minterm in a uint32 with
// room to spare; an encoded bitmap index over a domain of a billion values
// needs only 30 vectors.
const MaxVars = 30

// Cube is a product term (implicant) over k variables. Variable i
// corresponds to bit i. For each variable whose Mask bit is 0 the cube
// constrains it: positive literal if the Value bit is 1, negated literal if
// 0. Mask bit 1 means the variable does not appear in the product.
//
// A cube with Mask == all-ones is the constant true.
type Cube struct {
	Value uint32
	Mask  uint32
}

// Covers reports whether the cube contains the point x.
func (c Cube) Covers(x uint32) bool {
	return (x^c.Value)&^c.Mask == 0
}

// Literals returns the number of literals in the cube given k variables.
func (c Cube) Literals(k int) int {
	return k - bits.OnesCount32(c.Mask&kmask(k))
}

// Size returns the number of points covered by the cube within k variables.
func (c Cube) Size(k int) int {
	return 1 << bits.OnesCount32(c.Mask&kmask(k))
}

func kmask(k int) uint32 {
	if k <= 0 {
		return 0
	}
	if k >= 32 {
		return ^uint32(0)
	}
	return (1 << uint(k)) - 1
}

// Expr is a sum of products: the disjunction of its cubes. The empty Expr
// is the constant false.
type Expr struct {
	K     int
	Cubes []Cube
}

// Vars returns the set of variables referenced by the expression as a
// bitmask: bit i set means bitmap vector B_i must be read to evaluate it.
func (e Expr) Vars() uint32 {
	var used uint32
	for _, c := range e.Cubes {
		used |= ^c.Mask & kmask(e.K)
	}
	return used
}

// AccessCost returns the number of distinct bitmap vectors the expression
// reads — the paper's c_e for this selection.
func (e Expr) AccessCost() int {
	return bits.OnesCount32(e.Vars())
}

// Eval reports whether the expression is true at point x.
func (e Expr) Eval(x uint32) bool {
	for _, c := range e.Cubes {
		if c.Covers(x) {
			return true
		}
	}
	return false
}

// OnSet enumerates all points in {0,1}^K where the expression is true.
func (e Expr) OnSet() []uint32 {
	var out []uint32
	for x := uint32(0); x < 1<<uint(e.K); x++ {
		if e.Eval(x) {
			out = append(out, x)
		}
	}
	return out
}

// String renders the expression in the paper's notation, e.g.
// "B2'B1B0' + B2B1'" (Bi = variable i, ' = negation). The constant false
// renders as "0", constant true as "1".
func (e Expr) String() string {
	if len(e.Cubes) == 0 {
		return "0"
	}
	parts := make([]string, 0, len(e.Cubes))
	for _, c := range e.Cubes {
		var sb strings.Builder
		for i := e.K - 1; i >= 0; i-- {
			bit := uint32(1) << uint(i)
			if c.Mask&bit != 0 {
				continue
			}
			fmt.Fprintf(&sb, "B%d", i)
			if c.Value&bit == 0 {
				sb.WriteByte('\'')
			}
		}
		if sb.Len() == 0 {
			return "1" // a cube with no literals is the constant true
		}
		parts = append(parts, sb.String())
	}
	return strings.Join(parts, " + ")
}

// FromMinterms builds the unreduced sum of min-terms for the given on-set,
// exactly as Definition 2.1 constructs retrieval functions.
func FromMinterms(k int, on []uint32) Expr {
	cubes := make([]Cube, len(on))
	for i, m := range on {
		cubes[i] = Cube{Value: m & kmask(k), Mask: 0}
	}
	return Expr{K: k, Cubes: cubes}
}

// Minimize returns a reduced sum-of-products expression equivalent to the
// on-set on all points outside the don't-care set dc (footnote 3 of the
// paper). Points may not appear in both on and dc.
//
// Only prime implicants that cover an on-set minterm can enter a cover, so
// those are the only ones generated: each is found by widening cubes
// outward from an on-set minterm (see primeGen), and cubes made purely of
// don't-cares are never built. The result is the one the classic
// Quine–McCluskey tabulation over on ∪ dc would select.
//
// Cover selection takes all essential prime implicants, then greedily adds
// prime implicants preferring (1) most uncovered minterms, (2) fewest newly
// referenced variables, (3) fewest literals — the tie-breaks bias the cover
// toward the paper's objective of reading few bitmap vectors.
func Minimize(k int, on, dc []uint32) Expr {
	return minimize(k, on, dc, denseMembership)
}

// minimize is Minimize with the membership structure chosen by dense,
// which is given k and |on ∪ dc|.
func minimize(k int, on, dc []uint32, dense func(k, n int) bool) Expr {
	if k < 0 || k > MaxVars {
		panic(fmt.Sprintf("boolmin: k=%d out of range [0,%d]", k, MaxVars))
	}
	km := kmask(k)
	onset := dedup(on, km)
	dcset := dedup(dc, km)
	if m, ok := firstCommon(onset, dcset); ok {
		panic(fmt.Sprintf("boolmin: minterm %d in both on-set and don't-care set", m))
	}
	if len(onset) == 0 {
		return Expr{K: k}
	}
	if len(onset)+len(dcset) == 1<<uint(k) {
		// Every point is on or don't-care: the whole space is the one
		// prime implicant.
		return Expr{K: k, Cubes: []Cube{{Value: 0, Mask: km}}}
	}
	g := newPrimeGen(k, onset, dcset, dense(k, len(onset)+len(dcset)))
	for _, m := range onset {
		g.expand(m, m, 0, -1)
	}
	slices.SortFunc(g.primes, cmpCube)
	return Expr{K: k, Cubes: selectCover(k, g.primes, onset)}
}

// denseFactor bounds the size of the dense membership table relative to
// the number of points it classifies. BenchmarkMinimizeMembership sets it:
// on columns of k = 14 and 18 the map overtakes the table between 64 and 128
// code points per point of on ∪ dc, while in a 1024-code space (the day
// and product columns) the table is 1.3–3.6× faster than the map from
// |on ∪ dc| = 24 up.
const denseFactor = 64

// denseMembership reports whether prime generation classifies points with
// a dense table of 2^k bytes rather than a map of the n points of on ∪ dc:
// it does while 2^k <= denseFactor·n. A core index's free codes are its
// don't-cares, so its lists take the map only when the values fill more
// than 63/64 of the code space and the list is narrow.
func denseMembership(k, n int) bool {
	return 1<<uint(k) <= denseFactor*n
}

// Point classes in the membership table.
const (
	classOff uint8 = iota
	classDC
	classOn
)

// primeGen enumerates the prime implicants of on ∪ dc that cover at least
// one on-set minterm.
//
// From an on-set minterm (the root) it walks the implicants containing
// the root depth first, widening one variable at a time in increasing bit
// order, so each such cube is reached along exactly one path from the
// root. A cube (v, M) widens along variable b iff every point of
// (v^b, M) is in on ∪ dc, and it is prime iff it widens along no
// variable. Roots are taken in ascending order and a walk never enters a
// cube holding an on-set minterm below its root: the walk from that
// smaller minterm has already reached it, so every cube is walked once.
type primeGen struct {
	k      int
	dense  []uint8          // class of every point, or nil
	sparse map[uint32]uint8 // class of the points of on ∪ dc when dense is nil
	primes []Cube
}

func newPrimeGen(k int, onset, dcset []uint32, dense bool) *primeGen {
	g := &primeGen{k: k}
	if dense {
		g.dense = make([]uint8, 1<<uint(k))
	} else {
		g.sparse = make(map[uint32]uint8, len(onset)+len(dcset))
	}
	for _, set := range []struct {
		points []uint32
		class  uint8
	}{{onset, classOn}, {dcset, classDC}} {
		for _, x := range set.points {
			if g.dense != nil {
				g.dense[x] = set.class
			} else {
				g.sparse[x] = set.class
			}
		}
	}
	return g
}

func (g *primeGen) class(x uint32) uint8 {
	if g.dense != nil {
		return g.dense[x]
	}
	return g.sparse[x]
}

// scan reports whether every point of the cube (v, m) is in on ∪ dc, and
// if so whether one of them is an on-set minterm below root.
func (g *primeGen) scan(v, m, root uint32) (implicant, below bool) {
	v &^= m
	for s := m; ; s = (s - 1) & m {
		switch x := v | s; g.class(x) {
		case classOff:
			return false, false
		case classOn:
			below = below || x < root
		}
		if s == 0 {
			return true, below
		}
	}
}

// expand walks the implicant (v, m) from root, and the implicants above
// it, recording the primes; top is the highest variable free in m (-1 for
// the root itself).
func (g *primeGen) expand(root, v, m uint32, top int) {
	prime := true
	for b := 0; b < g.k; b++ {
		bit := uint32(1) << uint(b)
		if m&bit != 0 {
			continue
		}
		implicant, below := g.scan(v^bit, m, root)
		if !implicant {
			continue
		}
		prime = false
		if b > top && !below {
			g.expand(root, v&^bit, m|bit, b)
		}
	}
	if prime {
		g.primes = append(g.primes, Cube{Value: v, Mask: m})
	}
}

// cmpCube orders cubes by (Mask, Value), the order cover selection sees
// its candidates and reports its result in.
func cmpCube(a, b Cube) int {
	if a.Mask != b.Mask {
		return cmp.Compare(a.Mask, b.Mask)
	}
	return cmp.Compare(a.Value, b.Value)
}

// selectCover picks a subset of prime implicants covering every on-set
// minterm: essential primes first, then a greedy completion.
func selectCover(k int, primes []Cube, onset []uint32) []Cube {
	covered := make([]bool, len(onset))
	coverers := make([][]int, len(onset)) // minterm -> prime indices
	for mi, m := range onset {
		for pi, p := range primes {
			if p.Covers(m) {
				coverers[mi] = append(coverers[mi], pi)
			}
		}
	}
	chosen := make(map[int]bool)
	// Essential prime implicants.
	for mi := range onset {
		if len(coverers[mi]) == 1 {
			chosen[coverers[mi][0]] = true
		}
	}
	markCovered := func() {
		for mi, m := range onset {
			if covered[mi] {
				continue
			}
			for pi := range chosen {
				if primes[pi].Covers(m) {
					covered[mi] = true
					break
				}
			}
		}
	}
	markCovered()

	varsOf := func(c Cube) uint32 { return ^c.Mask & kmask(k) }
	usedVars := uint32(0)
	for pi := range chosen {
		usedVars |= varsOf(primes[pi])
	}

	for {
		remaining := 0
		for _, c := range covered {
			if !c {
				remaining++
			}
		}
		if remaining == 0 {
			break
		}
		best, bestCov, bestNewVars, bestLits := -1, -1, 0, 0
		for pi, p := range primes {
			if chosen[pi] {
				continue
			}
			cov := 0
			for mi, m := range onset {
				if !covered[mi] && p.Covers(m) {
					cov++
				}
			}
			if cov == 0 {
				continue
			}
			newVars := bits.OnesCount32(varsOf(p) &^ usedVars)
			lits := p.Literals(k)
			if best == -1 ||
				cov > bestCov ||
				(cov == bestCov && newVars < bestNewVars) ||
				(cov == bestCov && newVars == bestNewVars && lits < bestLits) {
				best, bestCov, bestNewVars, bestLits = pi, cov, newVars, lits
			}
		}
		if best == -1 {
			panic("boolmin: internal error: uncoverable minterm")
		}
		chosen[best] = true
		usedVars |= varsOf(primes[best])
		markCovered()
	}

	out := make([]Cube, 0, len(chosen))
	for pi := range chosen {
		out = append(out, primes[pi])
	}
	slices.SortFunc(out, cmpCube)
	return out
}

// MinimalAccessCost returns the smallest number of distinct variables any
// sum-of-products cover of (on, dc) can reference. It searches subsets of
// variables in increasing size and checks whether the on/off separation is
// expressible using only those variables: projecting on- and off-set points
// onto the subset must produce disjoint images. Exponential in k — intended
// for verifying Theorems 2.2/2.3 on small domains in tests.
func MinimalAccessCost(k int, on, dc []uint32) int {
	km := kmask(k)
	onset := dedup(on, km)
	if len(onset) == 0 {
		return 0
	}
	isOn := make(map[uint32]bool, len(onset))
	for _, m := range onset {
		isOn[m] = true
	}
	isDC := make(map[uint32]bool, len(dc))
	for _, m := range dedup(dc, km) {
		isDC[m] = true
	}
	var offset []uint32
	for x := uint32(0); x < 1<<uint(k); x++ {
		if !isOn[x] && !isDC[x] {
			offset = append(offset, x)
		}
	}
	if len(offset) == 0 {
		return 0 // constant true
	}
	for size := 0; size <= k; size++ {
		if subsetWorks(k, size, onset, offset) {
			return size
		}
	}
	return k
}

// subsetWorks reports whether some variable subset of the given size
// separates onset from offset.
func subsetWorks(k, size int, onset, offset []uint32) bool {
	var try func(start int, cur uint32, left int) bool
	try = func(start int, cur uint32, left int) bool {
		if left == 0 {
			onProj := make(map[uint32]bool, len(onset))
			for _, m := range onset {
				onProj[m&cur] = true
			}
			for _, m := range offset {
				if onProj[m&cur] {
					return false
				}
			}
			return true
		}
		for i := start; i <= k-left; i++ {
			if try(i+1, cur|1<<uint(i), left-1) {
				return true
			}
		}
		return false
	}
	return try(0, 0, size)
}

// Equivalent reports whether two expressions over the same K agree on every
// point outside the don't-care set.
func Equivalent(a, b Expr, dc []uint32) bool {
	if a.K != b.K {
		return false
	}
	isDC := make(map[uint32]bool, len(dc))
	for _, m := range dc {
		isDC[m&kmask(a.K)] = true
	}
	for x := uint32(0); x < 1<<uint(a.K); x++ {
		if isDC[x] {
			continue
		}
		if a.Eval(x) != b.Eval(x) {
			return false
		}
	}
	return true
}

// dedup returns the distinct points of xs masked to km, ascending.
func dedup(xs []uint32, km uint32) []uint32 {
	out := make([]uint32, len(xs))
	for i, x := range xs {
		out[i] = x & km
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// firstCommon returns the smallest point of two ascending sets that is in
// both.
func firstCommon(a, b []uint32) (uint32, bool) {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return a[i], true
		}
	}
	return 0, false
}
