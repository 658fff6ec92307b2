package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/bitvec"
	"repro/internal/iostat"
	"repro/internal/obs"
	"repro/internal/query"
)

// system is one workload's query path under test.
type system struct {
	eval       func(query.Predicate) (*bitvec.Vector, iostat.Stats, error)
	ref        *scanRef
	leaf       func(t *tracer, lc *layerCounts, p query.Predicate) (*bitvec.Vector, error)
	note       func(lc *layerCounts, p query.Predicate) // mirrors an untraced Eval's program-cache fill; nil on serve
	obsCompare bool                                     // traced queries also run with telemetry on and off (serve)
}

// checkBatch is how many results a pass holds before checking them, so
// that queries run back to back instead of each one after a column scan
// has flushed the caches; only one query in checkBatch runs just after
// the scans, too few to reach the p99.
const checkBatch = 128

// pass accumulates one measurement pass: untraced (end-to-end numbers,
// optionally with allocation sampling) or traced (spans plus counts).
type pass struct {
	t            *tracer // nil when untraced
	lc           layerCounts
	sampleAllocs bool
	mirror       bool // untraced: keep the replay's program-cache mirror in step (sys.note)

	pending []func() error // result checks not yet run

	latUS      []float64 // untraced per-query Eval latency
	queries    int
	vectors    int
	attempted  int
	failed     int
	firstErr   error
	allocs     uint64
	allocBytes uint64
	gcCycles   uint64

	appendUS   []float64 // per Synced.Append call
	appendRows int
	appendNS   int64
	rounds     []roundEnd // where each round of the run ended
	reencodeMS []float64
	progHits   uint64 // obs program-cache counters over the pass (serve)
	progMisses uint64
}

var (
	mProgHits   = obs.Default().Counter("ebi_core_prog_cache_hits_total", "")
	mProgMisses = obs.Default().Counter("ebi_core_expr_cache_misses_total", "")
)

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readAllocs() (objects, bytes, cycles uint64) {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64(), allocSamples[2].Value.Uint64()
}

// run starts the pass with a collected heap, calls step until d has
// elapsed (counting the result checks inside step) and closes the pass.
func (ps *pass) run(d time.Duration, step func(i int)) {
	runtime.GC()
	_, _, gc0 := readAllocs()
	h0, m0 := mProgHits.Value(), mProgMisses.Value()
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		step(i)
	}
	ps.flush()
	_, _, gc1 := readAllocs()
	ps.gcCycles = gc1 - gc0
	ps.progHits, ps.progMisses = mProgHits.Value()-h0, mProgMisses.Value()-m0
}

// roundEnd marks the end of one round of a run: the counts of the pass
// at that point. A serve round is one replay of its script from a fresh
// set-up; a read-only round is readOnlyRound queries.
type roundEnd struct {
	queries    int // len(latUS)
	appendRows int
	appendNS   int64
}

// endRound marks the end of a round.
func (ps *pass) endRound() {
	ps.rounds = append(ps.rounds, roundEnd{len(ps.latUS), ps.appendRows, ps.appendNS})
}

// later queues a result check; every checkBatch queued checks run.
func (ps *pass) later(check func() error) {
	ps.pending = append(ps.pending, check)
	if len(ps.pending) >= checkBatch {
		ps.flush()
	}
}

// flush runs the queued result checks.
func (ps *pass) flush() {
	for _, check := range ps.pending {
		if err := check(); err != nil {
			ps.fail(err)
		}
	}
	clear(ps.pending)
	ps.pending = ps.pending[:0]
}

func (ps *pass) fail(err error) {
	ps.failed++
	if ps.firstErr == nil {
		ps.firstErr = err
	}
}

// query runs one query through the system, times it and queues the
// check of its result against the table scan, outside the timed region.
func (ps *pass) query(sys *system, p query.Predicate) {
	ps.attempted++
	if ps.t != nil {
		ps.tracedQuery(sys, p)
		return
	}
	var o0, b0 uint64
	if ps.sampleAllocs {
		o0, b0, _ = readAllocs()
	}
	misses := mProgMisses.Value()
	t0 := time.Now()
	rows, st, err := sys.eval(p)
	d := time.Since(t0)
	misses = mProgMisses.Value() - misses
	if ps.sampleAllocs {
		o1, b1, _ := readAllocs()
		ps.allocs += o1 - o0
		ps.allocBytes += b1 - b0
	}
	if err != nil {
		ps.fail(fmt.Errorf("%s: %w", p, err))
		return
	}
	if ps.mirror && sys.note != nil {
		before := ps.lc.cacheMisses
		forEachLeaf(p, func(leaf query.Predicate) { sys.note(&ps.lc, leaf) })
		if err := mirrorCheck(p, ps.lc.cacheMisses-before, misses); err != nil {
			ps.fail(err)
		}
	}
	ps.latUS = append(ps.latUS, float64(d.Nanoseconds())/1e3)
	ps.queries++
	ps.vectors += st.VectorsRead
	n := sys.ref.rows()
	ps.later(func() error { return sys.ref.check(p, rows, n) })
}

// tracedQuery runs the system's own Eval under a query.eval span, then
// replays the query split into layer calls under a replay span. On serve
// it also runs the Eval once with telemetry on and once with it off,
// between the two, in alternating order so that neither side always
// finds the caches the other warmed.
func (ps *pass) tracedQuery(sys *system, p query.Predicate) {
	t := ps.t
	t.beginQuery(ps.attempted)
	misses := mProgMisses.Value()
	t.start(spanEval)
	rows, _, err := sys.eval(p)
	t.end()
	misses = mProgMisses.Value() - misses
	var onRows, offRows *bitvec.Vector
	var onErr, offErr error
	if sys.obsCompare {
		if ps.attempted%2 == 0 {
			onRows, onErr = evalObs(t, sys, p, true)
			offRows, offErr = evalObs(t, sys, p, false)
		} else {
			offRows, offErr = evalObs(t, sys, p, false)
			onRows, onErr = evalObs(t, sys, p, true)
		}
	}
	before := ps.lc.cacheMisses
	t.start(spanReplay)
	replayed, rerr := replay(t, p, func(leaf query.Predicate) (*bitvec.Vector, error) {
		return sys.leaf(t, &ps.lc, leaf)
	})
	t.end()
	t.endQuery()
	mirrorErr := mirrorCheck(p, ps.lc.cacheMisses-before, misses)

	ps.queries++
	n := sys.ref.rows()
	ps.later(func() error {
		switch {
		case err != nil:
			return fmt.Errorf("%s: %w", p, err)
		case rerr != nil:
			return fmt.Errorf("replay of %s: %w", p, rerr)
		case mirrorErr != nil:
			return mirrorErr
		case onErr != nil || offErr != nil:
			return fmt.Errorf("%s with telemetry on/off: %v / %v", p, onErr, offErr)
		case !replayed.Equal(rows):
			return fmt.Errorf("replay of %s differs from its Eval", p)
		case sys.obsCompare && !(onRows.Equal(rows) && offRows.Equal(rows)):
			return fmt.Errorf("%s with telemetry on/off differs", p)
		}
		return sys.ref.check(p, rows, n)
	})
}

// mirrorCheck compares the program-cache misses of the replay's mirror
// for one query with the misses the index's own Eval of it counted in
// the obs registry. The counters only move with telemetry on (serve, and
// the tests of the read-only workloads); with it off there is nothing
// to compare.
func mirrorCheck(p query.Predicate, mirrorMisses int, evalMisses uint64) error {
	if !obs.On() || uint64(mirrorMisses) == evalMisses {
		return nil
	}
	return fmt.Errorf("%s: the replay's program-cache mirror missed %d times, the index's own Eval %d", p, mirrorMisses, evalMisses)
}

// evalObs runs the Eval again under an obs.on or obs.off span, with
// telemetry switched accordingly.
func evalObs(t *tracer, sys *system, p query.Predicate, on bool) (*bitvec.Vector, error) {
	name := spanObsOn
	if !on {
		obs.Disable()
		defer obs.Enable()
		name = spanObsOff
	}
	t.start(name)
	defer t.end()
	rows, _, err := sys.eval(p)
	return rows, err
}
