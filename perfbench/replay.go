package main

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/boolmin"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/query"
	"repro/internal/table"
)

// layerCounts are the work counts the traced replay takes at the layer
// boundaries, next to the spans.
type layerCounts struct {
	kernelWords int // words the fused kernel read
	kernelOps   int // bulk Boolean operations the kernel performed
	cacheHits   int // Eq leaves served by the per-code program cache
	cacheMisses int // Eq leaves that minimized and compiled
}

// leafReplay replays one leaf predicate as calls into the layers.
type leafReplay func(p query.Predicate) (*bitvec.Vector, error)

// replay evaluates p as the executor and planner do, but with every leaf
// handed to leaf and every cross-leaf combination timed as its own span.
func replay(t *tracer, p query.Predicate, leaf leafReplay) (*bitvec.Vector, error) {
	switch p := p.(type) {
	case query.And, query.Or:
		preds, and := andOr(p)
		acc, err := replay(t, preds[0], leaf)
		if err != nil {
			return nil, err
		}
		for _, c := range preds[1:] {
			rows, err := replay(t, c, leaf)
			if err != nil {
				return nil, err
			}
			t.start(spanCombine)
			if and {
				acc.And(rows)
			} else {
				acc.Or(rows)
			}
			t.end()
		}
		return acc, nil
	case query.Not:
		rows, err := replay(t, p.Pred, leaf)
		if err != nil {
			return nil, err
		}
		t.start(spanCombine)
		rows.Not()
		t.end()
		return rows, nil
	}
	return leaf(p)
}

// forEachLeaf calls fn on every leaf of p.
func forEachLeaf(p query.Predicate, fn func(query.Predicate)) {
	switch p := p.(type) {
	case query.And, query.Or:
		preds, _ := andOr(p)
		for _, c := range preds {
			forEachLeaf(c, fn)
		}
	case query.Not:
		forEachLeaf(p.Pred, fn)
	default:
		fn(p)
	}
}

// ebiColumn is a read-only encoded bitmap index opened up for the
// replay: its mapping, its vectors as kernel operands, and a mirror of
// the index's per-code program cache. The mirror follows every Eq the
// index answers, in the replay through split and outside it through
// note, so that a replayed Eq minimizes and compiles exactly when the
// index's own Eq before it did.
type ebiColumn struct {
	ix      *core.Index[int64]
	ordered *core.OrderedIndex[int64] // answers ranges; nil when the column has none
	mapping *encoding.Mapping[int64]
	srcs    []bitvec.WordSource
	progs   map[uint32]*boolmin.Program
}

func newEBIColumn(ix *core.Index[int64], ordered *core.OrderedIndex[int64]) *ebiColumn {
	c := &ebiColumn{ix: ix, ordered: ordered, mapping: ix.Mapping(), progs: make(map[uint32]*boolmin.Program)}
	for i := 0; i < ix.K(); i++ {
		c.srcs = append(c.srcs, ix.Vector(i))
	}
	return c
}

// note mirrors the cache fill of an Eq leaf the index answered outside
// a replay, counted as the index counts it, without timing anything.
func (c *ebiColumn) note(lc *layerCounts, p query.Predicate) {
	eq, ok := p.(query.Eq)
	if !ok || eq.Val.Null {
		return
	}
	code, ok := c.mapping.CodeOf(eq.Val.I)
	if !ok {
		return
	}
	if c.progs[code] != nil {
		lc.cacheHits++
		return
	}
	lc.cacheMisses++
	c.progs[code] = boolmin.Compile(c.ix.ExprFor([]int64{eq.Val.I}))
}

// replayLeaf replays one leaf of a read-only workload: a range goes to
// OrderedIndex.Range whole; an Eq or In leaf is split into layer calls
// under a core.leaf span, whose self time is the replay's glue.
func (c *ebiColumn) replayLeaf(t *tracer, lc *layerCounts, p query.Predicate) (*bitvec.Vector, error) {
	if r, ok := p.(query.Range); ok {
		if c.ordered == nil {
			return nil, fmt.Errorf("replay: no ordered index for %s", p)
		}
		t.start(spanRange)
		rows, _ := c.ordered.Range(r.Lo, r.Hi)
		t.end()
		return rows, nil
	}
	t.start(spanLeaf)
	defer t.end()
	return c.split(t, lc, p)
}

// split evaluates an Eq or In leaf as Mapping.CodeOf, boolmin.Minimize
// (through Index.ExprFor, which maps the values once more),
// boolmin.Compile and Program.EvalInto, each under its own span.
func (c *ebiColumn) split(t *tracer, lc *layerCounts, p query.Predicate) (*bitvec.Vector, error) {
	var vals []int64
	eq := false
	switch p := p.(type) {
	case query.Eq:
		vals, eq = []int64{p.Val.I}, true
	case query.In:
		vals = cellInts(p.Vals)
	default:
		return nil, fmt.Errorf("replay: unsupported leaf %T", p)
	}
	t.start(spanMap)
	codes := make([]uint32, 0, len(vals))
	for _, v := range vals {
		if code, ok := c.mapping.CodeOf(v); ok {
			codes = append(codes, code)
		}
	}
	t.end()
	if eq && len(codes) == 0 {
		return bitvec.New(c.ix.Len()), nil
	}
	var prog *boolmin.Program
	if eq {
		if prog = c.progs[codes[0]]; prog != nil {
			lc.cacheHits++
		} else {
			lc.cacheMisses++
		}
	}
	if prog == nil {
		t.start(spanMinimize)
		expr := c.ix.ExprFor(vals)
		t.end()
		t.start(spanCompile)
		prog = boolmin.Compile(expr)
		t.end()
		if eq {
			c.progs[codes[0]] = prog
		}
	}
	t.start(spanKernel)
	dst := bitvec.New(c.ix.Len())
	res := prog.EvalInto(dst, c.srcs)
	t.end()
	lc.kernelWords += res.WordsRead
	lc.kernelOps += res.Ops
	return dst, nil
}

// syncedColumn replays the serve workload's leaves. A Synced index keeps
// its snapshot, program cache and append tail private, so a leaf is
// replayed twice: once as the adapter call under core.leaf (with the
// drift observer inside it timed by observeShim), and once split into
// layer calls against a consistent copy of the index's current state,
// under a leaf.split span. The Eval before the replay has always cached
// the leaf's program, so the adapter call maps and runs the kernel but
// never minimizes or compiles. The split's map and kernel times are
// therefore subtracted from core.leaf, which keeps what is Synced's own
// (snapshot load, program-cache lookup, tail extension, observer
// bookkeeping). The split minimizes and compiles only where its mirror
// of the cache misses, which is where the Eval itself missed; that time
// is the Eval's, not the adapter call's, and stays with boolmin.
type syncedColumn struct {
	sx    *core.Synced[int64]
	state *ebiColumn // split view of the state at (rows, epoch)
	rows  int
	epoch uint64
}

// current returns the split view of the index's current state, taking a
// new copy only after appends or a re-encoding changed it. Programs
// carry over between copies of one epoch, as Synced's own cache does.
func (c *syncedColumn) current() (*ebiColumn, error) {
	rows, epoch := c.sx.Len(), c.sx.Epoch()
	if c.state != nil && rows == c.rows && epoch == c.epoch {
		return c.state, nil
	}
	var state *ebiColumn
	err := c.sx.WithReadLock(func(ix *core.Index[int64]) error {
		state = newEBIColumn(ix, nil)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if c.state != nil && epoch == c.epoch {
		state.progs = c.state.progs
	}
	c.state, c.rows, c.epoch = state, rows, epoch
	return state, nil
}

func (c *syncedColumn) replayLeaf(t *tracer, lc *layerCounts, p query.Predicate) (*bitvec.Vector, error) {
	ix := query.SyncedEBIInt{Ix: c.sx}
	t.start(spanLeaf)
	var rows *bitvec.Vector
	var err error
	switch p := p.(type) {
	case query.Eq:
		rows, _, err = ix.Eq(p.Val)
	case query.In:
		rows, _, err = ix.In(p.Vals)
	default:
		err = fmt.Errorf("replay: unsupported leaf %T", p)
	}
	t.end()
	if err != nil {
		return nil, err
	}
	state, err := c.current()
	if err != nil {
		return nil, err
	}
	t.start(spanSplit)
	split, err := state.split(t, lc, p)
	t.end()
	if err != nil {
		return nil, err
	}
	if !split.Equal(rows) {
		return nil, fmt.Errorf("split replay of %s differs from the Synced leaf", p)
	}
	return rows, nil
}

func cellInts(cs []table.Cell) []int64 {
	out := make([]int64, 0, len(cs))
	for _, c := range cs {
		if !c.Null {
			out = append(out, c.I)
		}
	}
	return out
}

func intCells(vs []int64) []table.Cell {
	out := make([]table.Cell, len(vs))
	for i, v := range vs {
		out[i] = table.IntCell(v)
	}
	return out
}
