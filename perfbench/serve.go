package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/encoding"
	"repro/internal/iostat"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/table"
	"repro/internal/workload"
)

// The serve workload's fixed script: one round is serveReads reads with
// an append batch after every appendEvery reads and a live re-encoding of
// product every reencodeEvery reads, starting halfway into the first
// interval. Every round starts from a fresh set-up, so a faster build
// repeats the same work instead of growing the index further.
const (
	serveRows     = 200_000
	serveReads    = 4800
	appendEvery   = 16
	appendBatch   = 64
	reencodeEvery = 1200
)

// serveColumns are the Synced-indexed columns, in append order.
var serveColumns = []string{"product", "salespoint", "day"}

// serveOp is one step of the script: a read, an append batch, or a live
// re-encoding of product to plan A (0) or plan B (1).
type serveOp struct {
	read     query.Predicate
	rows     [][3]int64
	reencode int
}

// serveWorld is one set-up of the serve workload.
type serveWorld struct {
	synced map[string]*core.Synced[int64]
	ex     *query.Executor
	plans  [2]*encoding.Mapping[int64]
	ref    *scanRef
}

// observeShim times the drift recorder as the drift.observe span.
type observeShim struct {
	rec *drift.Recorder[int64]
	t   *tracer
}

func (s observeShim) ObserveSelection(values []int64, st iostat.Stats, minVectors int) {
	s.t.start(spanObserve)
	s.rec.ObserveSelection(values, st, minVectors)
	s.t.end()
}

// runServe is the serving workload: a 200k-row star growing by appends,
// Synced indexes behind query.SyncedEBIInt, telemetry on as ebicli serve
// runs it (obs.Enable plus a drift.Recorder per index), reads interleaved
// with append batches and live re-encodings.
func runServe(opt options) (*outcome, error) {
	star, err := workload.BuildStar(rand.New(rand.NewSource(opt.seed)), starConfig(serveRows))
	if err != nil {
		return nil, err
	}
	base := map[string][]int64{"product": star.Product, "salespoint": star.SalesPoint, "day": star.Day}
	r := rand.New(rand.NewSource(scriptSeed(opt.seed)))
	planPreds := [2][][]int64{hotLists(r, star.Product), hotLists(r, star.Product)}
	script := serveScript(r, star)

	obs.Enable()
	defer obs.Disable()
	var su setupStats
	var setupErr error
	setup := func(t *tracer) *serveWorld {
		runtime.GC()
		t0 := time.Now()
		w, err := newServeWorld(star, base, planPreds, t)
		if err != nil {
			setupErr = err
			return nil
		}
		su.seconds = append(su.seconds, time.Since(t0).Seconds())
		// The reference copy is the benchmark's, not the system's set-up.
		refCols := make(map[string][]int64)
		for _, name := range serveColumns {
			refCols[name] = slices.Clone(base[name])
		}
		w.ref = newScanRef(refCols).withRowLists()
		if su.bytesPerRow == 0 {
			su.bytesPerRow = w.bytesPerRow()
		}
		return w
	}
	out := measure(opt, &su, func(ps *pass, _ int) {
		w := setup(ps.t)
		if w == nil {
			ps.attempted++
			ps.fail(fmt.Errorf("setup: %w", setupErr))
			return
		}
		sys := w.system()
		for _, op := range script {
			w.do(ps, sys, op)
		}
		ps.endRound()
	})
	if setupErr != nil {
		return nil, fmt.Errorf("setup: %w", setupErr)
	}
	out.rows = serveRows
	return out, nil
}

// hotLists draws four 8-value IN-lists over the 64 hottest products: the
// predicate workload a re-encoding plan is made for.
func hotLists(r *rand.Rand, product []int64) [][]int64 {
	hot := distinct(product)[:64]
	lists := make([][]int64, 4)
	for i := range lists {
		lists[i] = pick(r, hot, 8)
	}
	return lists
}

// serveScript generates one round: Zipf point Eq on product (70%),
// 4-value In on product (15%) and point And on product x salespoint
// (15%), with the append batches and re-encodings at fixed positions.
// Appended rows copy random base rows, so every value is already in the
// index's domain and both re-encoding plans stay valid.
func serveScript(r *rand.Rand, star *workload.Star) []serveOp {
	cfg := star.Config
	zipf := rand.NewZipf(r, 1.2, 1, uint64(cfg.Products-1))
	products := distinct(star.Product)
	point := func() query.Predicate {
		return query.Eq{Col: "product", Val: table.IntCell(int64(zipf.Uint64()))}
	}
	var script []serveOp
	for i := 0; i < serveReads; i++ {
		var p query.Predicate
		switch u := r.Intn(20); {
		case u < 14:
			p = point()
		case u < 17:
			p = query.In{Col: "product", Vals: intCells(pick(r, products, 4))}
		default:
			p = query.And{Preds: []query.Predicate{
				point(),
				query.Eq{Col: "salespoint", Val: table.IntCell(int64(r.Intn(cfg.SalesPoints)))},
			}}
		}
		script = append(script, serveOp{read: p})
		if (i+1)%appendEvery == 0 {
			rows := make([][3]int64, appendBatch)
			for j := range rows {
				k := r.Intn(cfg.Facts)
				rows[j] = [3]int64{star.Product[k], star.SalesPoint[k], star.Day[k]}
			}
			script = append(script, serveOp{rows: rows})
		}
		if (i+1+reencodeEvery/2)%reencodeEvery == 0 {
			script = append(script, serveOp{reencode: (i / reencodeEvery) % 2})
		}
	}
	return script
}

// newServeWorld is the timed set-up: the Synced indexes, the executor,
// the drift recorders (behind observeShim when t is non-nil) and the two
// re-encoding plans for product. The caller adds the reference copy.
func newServeWorld(star *workload.Star, base map[string][]int64, planPreds [2][][]int64, t *tracer) (*serveWorld, error) {
	w := &serveWorld{synced: make(map[string]*core.Synced[int64]), ex: query.NewExecutor(star.Schema.Fact)}
	for _, name := range serveColumns {
		sx, err := core.BuildSynced(base[name], nil, nil)
		if err != nil {
			return nil, fmt.Errorf("index %s: %w", name, err)
		}
		rec := drift.NewRecorder[int64](name, 0, 0)
		if t != nil {
			sx.SetSelectionObserver(observeShim{rec: rec, t: t})
		} else {
			sx.SetSelectionObserver(rec)
		}
		w.synced[name] = sx
		w.ex.Use(name, query.SyncedEBIInt{Ix: sx})
	}
	for i, preds := range planPreds {
		plan, err := w.synced["product"].PlanReencode(preds, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("plan re-encoding %d: %w", i, err)
		}
		w.plans[i] = plan.Mapping
	}
	return w, nil
}

func (w *serveWorld) bytesPerRow() float64 {
	var bytes int
	for _, name := range serveColumns {
		_ = w.synced[name].WithReadLock(func(ix *core.Index[int64]) error {
			bytes += ix.SizeBytes()
			return nil
		})
	}
	return float64(bytes) / float64(w.ref.rows())
}

func (w *serveWorld) system() *system {
	columns := make(map[string]*syncedColumn)
	for name, sx := range w.synced {
		columns[name] = &syncedColumn{sx: sx}
	}
	return &system{
		eval:       w.ex.Eval,
		ref:        w.ref,
		obsCompare: true,
		leaf: func(t *tracer, lc *layerCounts, p query.Predicate) (*bitvec.Vector, error) {
			c, ok := columns[leafColumn(p)]
			if !ok {
				return nil, fmt.Errorf("replay: no index on %s", leafColumn(p))
			}
			return c.replayLeaf(t, lc, p)
		},
	}
}

// do runs one script step.
func (w *serveWorld) do(ps *pass, sys *system, op serveOp) {
	switch {
	case op.read != nil:
		ps.query(sys, op.read)
	case op.rows != nil:
		w.appendRows(ps, op.rows)
	default:
		ps.attempted++
		sx := w.synced["product"]
		epoch := sx.Epoch()
		t0 := time.Now()
		err := sx.Reencode(w.plans[op.reencode])
		d := time.Since(t0)
		switch {
		case err != nil:
			ps.fail(fmt.Errorf("re-encode: %w", err))
		case sx.Epoch() != epoch+1:
			ps.fail(fmt.Errorf("re-encode left epoch %d, want %d", sx.Epoch(), epoch+1))
		default:
			ps.reencodeMS = append(ps.reencodeMS, float64(d.Nanoseconds())/1e6)
		}
	}
}

// appendRows appends a batch to every index, timing each Append, and
// extends the reference copy to match.
func (w *serveWorld) appendRows(ps *pass, rows [][3]int64) {
	for _, row := range rows {
		ps.attempted++
		ok := true
		for c, name := range serveColumns {
			t0 := time.Now()
			err := w.synced[name].Append(row[c])
			d := time.Since(t0)
			if err != nil {
				ps.fail(fmt.Errorf("append to %s: %w", name, err))
				ok = false
			}
			ps.appendUS = append(ps.appendUS, float64(d.Nanoseconds())/1e3)
			ps.appendNS += d.Nanoseconds()
			w.ref.cols[name] = append(w.ref.cols[name], row[c])
		}
		if ok {
			ps.appendRows++
		}
	}
	for _, name := range serveColumns {
		if got, want := w.synced[name].Len(), len(w.ref.cols[name]); got != want {
			ps.fail(fmt.Errorf("%s has %d rows after appends, want %d", name, got, want))
		}
	}
}
