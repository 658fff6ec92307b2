package boolmin

import (
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// minimizeTabular is Minimize with the prime implicants computed by the
// classic tabular Quine–McCluskey merge over all of on ∪ dc. It is the
// oracle Minimize's on-set-rooted prime generation must agree with, cube
// for cube.
func minimizeTabular(k int, on, dc []uint32) Expr {
	km := kmask(k)
	onset := dedup(on, km)
	dcset := dedup(dc, km)
	if len(onset) == 0 {
		return Expr{K: k}
	}
	if len(onset)+len(dcset) == 1<<uint(k) && len(dcset) == 0 {
		return Expr{K: k, Cubes: []Cube{{Value: 0, Mask: km}}}
	}
	primes := primeImplicants(k, append(append([]uint32{}, onset...), dcset...))
	return Expr{K: k, Cubes: selectCover(k, primes, onset)}
}

// primeImplicants computes all prime implicants of the union set via the
// tabular merging procedure.
func primeImplicants(k int, terms []uint32) []Cube {
	type entry struct {
		cube   Cube
		merged bool
	}
	km := kmask(k)
	cur := make(map[Cube]*entry, len(terms))
	for _, t := range terms {
		c := Cube{Value: t & km, Mask: 0}
		cur[c] = &entry{cube: c}
	}
	var primes []Cube
	for len(cur) > 0 {
		// Group by popcount of value for the adjacency scan.
		groups := make(map[int][]*entry)
		for _, e := range cur {
			groups[bits.OnesCount32(e.cube.Value)] = append(groups[bits.OnesCount32(e.cube.Value)], e)
		}
		next := make(map[Cube]*entry)
		for pc, g := range groups {
			hi := groups[pc+1]
			for _, a := range g {
				for _, b := range hi {
					if a.cube.Mask != b.cube.Mask {
						continue
					}
					diff := a.cube.Value ^ b.cube.Value
					if bits.OnesCount32(diff) != 1 {
						continue
					}
					a.merged, b.merged = true, true
					nc := Cube{Value: a.cube.Value &^ diff, Mask: a.cube.Mask | diff}
					if _, ok := next[nc]; !ok {
						next[nc] = &entry{cube: nc}
					}
				}
			}
		}
		for _, e := range cur {
			if !e.merged {
				primes = append(primes, e.cube)
			}
		}
		cur = next
	}
	sort.Slice(primes, func(i, j int) bool {
		if primes[i].Mask != primes[j].Mask {
			return primes[i].Mask < primes[j].Mask
		}
		return primes[i].Value < primes[j].Value
	})
	return primes
}

// assertMatchesTabular fails t unless Minimize and the tabular oracle
// return the same expression.
func assertMatchesTabular(t testing.TB, k int, on, dc []uint32) {
	t.Helper()
	got, want := Minimize(k, on, dc), minimizeTabular(k, on, dc)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("k=%d |on|=%d |dc|=%d: Minimize = %s, tabular oracle = %s", k, len(on), len(dc), got, want)
	}
}

// Property: over random partitions of small code spaces — don't-care
// sets dense enough that prime implicants made only of don't-cares are
// common — Minimize returns exactly the tabular oracle's expression.
func TestPropMinimizeMatchesTabular(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 600; trial++ {
		k := r.Intn(9) // 0..8
		onPct, dcPct := r.Intn(60), r.Intn(80)
		var on, dc []uint32
		for x := 0; x < 1<<uint(k); x++ {
			switch p := r.Intn(100); {
			case p < onPct:
				on = append(on, uint32(x))
			case p < onPct+dcPct:
				dc = append(dc, uint32(x))
			}
		}
		assertMatchesTabular(t, k, on, dc)
	}
}

// columnShape is an encoded column as a core index lays it out: m values
// on codes 1..m of a k-bit space (code 0 is the void code), the codes
// above m free and handed to minimization as don't-cares.
type columnShape struct {
	name string
	k, m int
}

var columnShapes = []columnShape{
	{"day", 10, 730},      // 730 days, 293 free codes
	{"product", 10, 1000}, // 1000 products, 23 free codes
}

// inList draws width distinct codes of shape s, and returns them with the
// shape's don't-care codes.
func (s columnShape) inList(r *rand.Rand, width int) (on, dc []uint32) {
	for _, i := range r.Perm(s.m)[:width] {
		on = append(on, uint32(i+1))
	}
	for c := s.m + 1; c < 1<<uint(s.k); c++ {
		dc = append(dc, uint32(c))
	}
	return on, dc
}

// IN lists on day- and product-shaped columns, the selections the query
// path minimizes, come out exactly as the tabular oracle's.
func TestMinimizeMatchesTabularOnColumns(t *testing.T) {
	widths := []int{1, 4, 8, 16, 64, 365}
	if testing.Short() {
		widths = widths[:5]
	}
	r := rand.New(rand.NewSource(5))
	for _, s := range columnShapes {
		for _, w := range widths {
			on, dc := s.inList(r, w)
			assertMatchesTabular(t, s.k, on, dc)
		}
	}
}

// Every list on a day- or product-shaped column, Eq included, classifies
// points with the dense table, the faster structure on those columns.
func TestDenseMembershipOnColumns(t *testing.T) {
	for _, s := range columnShapes {
		on, dc := s.inList(rand.New(rand.NewSource(1)), 1)
		if n := len(on) + len(dc); !denseMembership(s.k, n) {
			t.Errorf("%s: width 1 (|on ∪ dc| = %d) takes the map", s.name, n)
		}
	}
}

// A sparse on-set in the widest code space must not allocate a table of
// the whole space: membership falls back to a hash set.
func TestMinimizeSparseWideBoundedMemory(t *testing.T) {
	on := []uint32{1, 1 << 29}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := Minimize(MaxVars, on, nil)
	runtime.ReadMemStats(&after)
	want := Expr{K: MaxVars, Cubes: []Cube{{Value: 1}, {Value: 1 << 29}}}
	if !reflect.DeepEqual(e, want) {
		t.Fatalf("Minimize = %s, want %s", e, want)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("Minimize allocated %d bytes, want under 1 MiB", d)
	}
}
