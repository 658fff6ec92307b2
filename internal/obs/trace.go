package obs

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/iostat"
)

// Span is one traced operation: a named interval with the evaluation's
// iostat.Stats, free-form attributes (plan choice, predicate shape,
// minimized-expression size, cache hit/miss, ...), and per-span resource
// deltas (CPU time and heap allocation). Spans form a tree: StartSpan
// nests under the span already in the context, StartChild/StartDetached
// nest explicitly, and only the root of a tree enters the tracer ring —
// /traces renders whole trees.
//
// A span is built on a single goroutine and becomes immutable once End
// is called; the tracer ring and /traces readers only see finished
// trees. Children must End before their parent does (detached worker
// spans End before the fork-join barrier releases the parent). From
// start to End the goroutine is locked to its OS thread, so the thread
// CPU clock the span reads is that goroutine's alone; End must
// therefore run on the goroutine that started the span.
//
// All methods are safe on a nil receiver, which is what StartSpan
// returns while telemetry is disabled — instrumented code needs no
// enabled-checks of its own.
type Span struct {
	ID         uint64         `json:"id"`
	ParentID   uint64         `json:"parent_id,omitempty"`
	TraceID    uint64         `json:"trace_id"`
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationNS int64          `json:"duration_ns"`
	Err        string         `json:"error,omitempty"`
	Stats      iostat.Stats   `json:"stats"`
	Attrs      map[string]any `json:"attrs,omitempty"`

	// Resource attribution, filled in at End. CPUNanos is the span
	// goroutine's thread CPU time (plus, for spans with detached
	// children, the workers' CPU), so a root span's CPU is the whole
	// query's. AllocBytes/AllocObjects are process-global heap-alloc
	// deltas over the span window: exact for a single query, an
	// approximation under concurrent load (documented in
	// docs/observability.md).
	CPUNanos     int64  `json:"cpu_ns"`
	AllocBytes   uint64 `json:"alloc_bytes"`
	AllocObjects uint64 `json:"allocs"`

	// Children are sub-spans that finished under this span: plan
	// nodes, fused blocks, parallel workers, page fetches.
	Children []*Span `json:"children,omitempty"`

	tracer   *Tracer
	parent   *Span
	detached bool // ended on a different goroutine than the parent
	res      Resources
	extCPU   atomic.Int64 // CPU contributed by detached children
	childMu  sync.Mutex
	labelCtx context.Context // pprof label set for worker goroutines
}

// SetLabelCtx stashes the context carrying the evaluation's pprof label
// set (the ctx pprof.Do passes to its body). Pool helper goroutines are
// persistent, so they inherit nothing from the caller — the fork-join
// reads this back via LabelCtx and applies the labels explicitly.
// Nil-safe; set it before handing the span to other goroutines.
func (sp *Span) SetLabelCtx(ctx context.Context) {
	if sp == nil {
		return
	}
	sp.labelCtx = ctx
}

// LabelCtx returns the context stored by SetLabelCtx, or nil. Nil-safe.
func (sp *Span) LabelCtx() context.Context {
	if sp == nil {
		return nil
	}
	return sp.labelCtx
}

var spanIDs atomic.Uint64

type spanKey struct{}

func newSpan(name string, parent *Span, tracer *Tracer) *Span {
	sp := &Span{
		ID:     spanIDs.Add(1),
		Name:   name,
		Start:  time.Now(),
		parent: parent,
		tracer: tracer,
	}
	if parent != nil {
		sp.ParentID = parent.ID
		sp.TraceID = parent.TraceID
	} else {
		sp.TraceID = sp.ID
	}
	runtime.LockOSThread()
	sp.res = TakeResources()
	return sp
}

// StartSpan begins a span on the default tracer and attaches it to the
// context so nested code can annotate it via SpanFromContext. If the
// context already carries a span, the new span becomes its child and
// the returned context points at the child. While telemetry is disabled
// it returns (ctx, nil) and costs one atomic load.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if !enabled.Load() {
		return ctx, nil
	}
	sp := newSpan(name, SpanFromContext(ctx), DefaultTracer())
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// StartChild begins a child span on the same goroutine as sp. It
// returns nil on a nil receiver, so callers holding a disabled-path nil
// span stay nil-safe without checks.
func (sp *Span) StartChild(name string) *Span {
	if sp == nil {
		return nil
	}
	return newSpan(name, sp, sp.tracer)
}

// StartDetached begins a child span that runs — and Ends — on a
// different goroutine than sp (a parallel worker). Call it on the
// worker goroutine so the CPU clock is the worker thread's. At End the
// child's CPU is added to sp, whose own thread clock cannot see the
// worker's time; the child must End before sp does (fork-join workers
// End before the join releases the caller). Nil-safe.
func (sp *Span) StartDetached(name string) *Span {
	if sp == nil {
		return nil
	}
	child := newSpan(name, sp, sp.tracer)
	child.detached = true
	return child
}

// SpanFromContext returns the span attached by StartSpan, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// SetAttr records one attribute.
func (sp *Span) SetAttr(key string, value any) {
	if sp == nil {
		return
	}
	if sp.Attrs == nil {
		sp.Attrs = make(map[string]any)
	}
	sp.Attrs[key] = value
}

// SetStats records the evaluation's access-cost accounting. The span
// carries the Stats value verbatim, so a trace and the caller-visible
// return cost are the same numbers by construction.
func (sp *Span) SetStats(st iostat.Stats) {
	if sp == nil {
		return
	}
	sp.Stats = st
}

// SetError records a failure.
func (sp *Span) SetError(err error) {
	if sp == nil || err == nil {
		return
	}
	sp.Err = err.Error()
}

// End finishes the span: the duration and resource deltas are fixed,
// and the span attaches to its parent — or, for a root, is pushed into
// its tracer's ring (and sink, if set). End must be called at most
// once; the span must not be mutated afterwards.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.DurationNS = time.Since(sp.Start).Nanoseconds()
	d := TakeResources().Sub(sp.res)
	runtime.UnlockOSThread()
	sp.CPUNanos = d.CPUNanos + sp.extCPU.Load()
	sp.AllocBytes, sp.AllocObjects = d.AllocBytes, d.AllocObjects
	if sp.parent != nil {
		if sp.detached {
			// The parent's thread clock never saw this worker's time.
			// Alloc counters are process-global, so the parent's own
			// window already includes the worker's allocations.
			sp.parent.extCPU.Add(sp.CPUNanos)
		}
		sp.parent.childMu.Lock()
		sp.parent.Children = append(sp.parent.Children, sp)
		sp.parent.childMu.Unlock()
		return
	}
	if sp.tracer != nil {
		sp.tracer.add(sp)
	}
}

// Seconds returns the span duration in seconds.
func (sp *Span) Seconds() float64 {
	if sp == nil {
		return 0
	}
	return float64(sp.DurationNS) / 1e9
}

// Walk visits sp and every descendant, parents before children.
func (sp *Span) Walk(fn func(*Span)) {
	if sp == nil {
		return
	}
	fn(sp)
	for _, c := range sp.Children {
		c.Walk(fn)
	}
}

// Tracer keeps a bounded ring of the most recent finished root spans
// (whole trees) and forwards each one to an optional sink.
type Tracer struct {
	mu    sync.Mutex
	ring  []*Span
	next  int
	total uint64
	sink  func(*Span)
}

// DefaultTracerCapacity is the ring size of the default tracer.
const DefaultTracerCapacity = 256

var defaultTracer = NewTracer(DefaultTracerCapacity)

// DefaultTracer returns the process-wide tracer StartSpan records into.
func DefaultTracer() *Tracer { return defaultTracer }

// NewTracer returns a tracer with a ring of the given capacity.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1
	}
	return &Tracer{ring: make([]*Span, capacity)}
}

func (t *Tracer) add(sp *Span) {
	t.mu.Lock()
	t.ring[t.next] = sp
	t.next = (t.next + 1) % len(t.ring)
	t.total++
	sink := t.sink
	t.mu.Unlock()
	if sink != nil {
		sink(sp)
	}
}

// Recent returns up to n finished root spans, newest first. n <= 0
// returns everything retained.
func (t *Tracer) Recent(n int) []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > len(t.ring) {
		n = len(t.ring)
	}
	out := make([]*Span, 0, n)
	for i := 1; i <= n; i++ {
		sp := t.ring[(t.next-i+len(t.ring))%len(t.ring)]
		if sp == nil {
			break
		}
		out = append(out, sp)
	}
	return out
}

// ByID returns the retained tree containing the span or trace ID, or
// nil if the ring has already dropped it. Exemplars hand out trace and
// span IDs; this is how /traces?id= resolves them back to a full tree.
func (t *Tracer) ByID(id uint64) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, root := range t.ring {
		if root == nil {
			continue
		}
		if root.TraceID == id {
			return root
		}
		found := false
		root.Walk(func(sp *Span) {
			if sp.ID == id {
				found = true
			}
		})
		if found {
			return root
		}
	}
	return nil
}

// Total returns how many root spans have finished on this tracer,
// including ones the ring has already dropped.
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// SetSink installs a function called synchronously with every finished
// root span (nil uninstalls). The sink must be fast and must not call
// back into the tracer.
func (t *Tracer) SetSink(fn func(*Span)) {
	t.mu.Lock()
	t.sink = fn
	t.mu.Unlock()
}
