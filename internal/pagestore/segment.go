package pagestore

import (
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/iostat"
)

// SegmentBytes is the payload one bitvec segment contributes to a stored
// vector: 64Ki bits = 8KiB.
const SegmentBytes = bitvec.SegmentBits / 8

// Segments returns how many execution segments cover one stored vector.
func (l Layout) Segments() int {
	if l.RowBytes == 0 {
		return 0
	}
	return (l.RowBytes + SegmentBytes - 1) / SegmentBytes
}

// SegmentPageSpan returns the page range [lo, hi) holding segment seg's
// bytes. A page straddling a segment boundary appears in both segments'
// spans — both executors need it resident.
func (l Layout) SegmentPageSpan(seg int) (lo, hi int) {
	byteLo := seg * SegmentBytes
	byteHi := byteLo + SegmentBytes
	if byteHi > l.RowBytes {
		byteHi = l.RowBytes
	}
	return byteLo / l.PageSize, (byteHi + l.PageSize - 1) / l.PageSize
}

// ReadPages requests pages [lo, hi) of a vector, returning how many hit.
func (c *Cache) ReadPages(vector, lo, hi int) (hits int) {
	for p := lo; p < hi; p++ {
		if c.Touch(PageID{Vector: vector, Page: p}) {
			hits++
		}
	}
	return hits
}

// chargeVarsSegmented faults the pages of every vector in the vars
// bitmask in segment-major order — the order the segmented parallel
// engine demands them: all touched vectors' pages for segment 0, then
// segment 1, and so on. The page set is identical to chargeVars' (modulo
// boundary pages shared by adjacent segments); only the LRU access order
// differs, which is exactly the locality effect worth modeling.
func (p *PagedIndex[V]) chargeVarsSegmented(vars uint32) (hits, misses int) {
	for seg := 0; seg < p.layout.Segments(); seg++ {
		lo, hi := p.layout.SegmentPageSpan(seg)
		for i := 0; i < p.ix.K(); i++ {
			if vars&(1<<uint(i)) == 0 {
				continue
			}
			for pg := lo; pg < hi; pg++ {
				if p.cache.Touch(PageID{Vector: i, Page: pg}) {
					hits++
					p.heat.record(i, pg, false)
				} else {
					misses++
					p.heat.record(i, pg, true)
				}
			}
		}
	}
	return hits, misses
}

// InParallel evaluates the selection with the segmented parallel engine,
// charging page I/O in the per-segment interleaved order the engine
// reads. The charge happens up front on the calling goroutine — it
// models the access pattern, not the timing — and the row evaluation
// then fans out across segments.
func (p *PagedIndex[V]) InParallel(values []V, degree int) (*bitvec.Vector, iostat.Stats, Stats) {
	expr := p.ix.ExprFor(values)
	hits, misses := p.chargeVarsSegmented(expr.Vars())
	rows, st := p.ix.InParallel(values, degree, nil)
	if got := bits.OnesCount32(expr.Vars()); st.VectorsRead != got {
		// Defensive: the charge must match the evaluation.
		st.VectorsRead = got
	}
	return rows, st, Stats{Hits: hits, Misses: misses}
}
