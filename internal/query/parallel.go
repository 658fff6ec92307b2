package query

import (
	"runtime"

	"repro/internal/bitvec"
)

// ParallelPolicy is the planner's cost gate for parallel leaf execution.
// Segmentation only pays once the vectors are long enough that the
// fork/join overhead amortizes, so inputs below MinWords always stay
// sequential.
type ParallelPolicy struct {
	// MinWords is the minimum backing-word count of the table's vectors
	// before a leaf is parallelized. 0 uses the default (4 segments).
	MinWords int
	// MaxDegree caps the executors per leaf. 0 uses GOMAXPROCS.
	MaxDegree int
}

// DefaultParallelPolicy gates at four segments (256Ki rows) and caps the
// degree at GOMAXPROCS.
func DefaultParallelPolicy() ParallelPolicy {
	return ParallelPolicy{
		MinWords:  4 * bitvec.SegmentWords,
		MaxDegree: runtime.GOMAXPROCS(0),
	}
}

// normalize fills zero fields with their defaults.
func (pol ParallelPolicy) normalize() ParallelPolicy {
	def := DefaultParallelPolicy()
	if pol.MinWords <= 0 {
		pol.MinWords = def.MinWords
	}
	if pol.MaxDegree <= 0 {
		pol.MaxDegree = def.MaxDegree
	}
	return pol
}

// degreeFor returns the executor count the gate picks for an input of
// the given backing-word length: 1 (sequential) below MinWords, otherwise
// min(MaxDegree, segments) — one executor per segment is the most that
// can ever be busy.
func (pol ParallelPolicy) degreeFor(words int) int {
	if words < pol.MinWords {
		return 1
	}
	segs := (words + bitvec.SegmentWords - 1) / bitvec.SegmentWords
	deg := pol.MaxDegree
	if deg > segs {
		deg = segs
	}
	if deg < 1 {
		deg = 1
	}
	return deg
}

// EnableParallel turns on cost-gated parallel leaf execution for access
// paths whose index implements LeafIndex (a path that cannot evaluate a
// leaf at the gated degree runs it sequentially). Zero policy fields take
// defaults (DefaultParallelPolicy).
func (pl *Planner) EnableParallel(pol ParallelPolicy) {
	p := pol.normalize()
	pl.par = &p
}

// DisableParallel reverts the planner to sequential-only leaf execution.
func (pl *Planner) DisableParallel() { pl.par = nil }

// tableWords returns the backing-word length of the table's row space —
// the size every bitmap vector over it shares.
func (pl *Planner) tableWords() int {
	return (pl.ex.tab.Len() + 63) / 64
}

// parallelDegree returns the degree the gate picks for a leaf routed to
// path (1 = stay sequential).
func (pl *Planner) parallelDegree(path *AccessPath) int {
	if pl.par == nil || path == nil {
		return 1
	}
	if _, ok := asLeaf(path.Index); !ok {
		return 1
	}
	return pl.par.degreeFor(pl.tableWords())
}
