package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span names. Each layer span wraps one call into that layer's public
// functions, made from the benchmark's own replay of a query; the
// bracketing spans (query, eval, obs on/off, replay, leaf.split) carry
// no layer.
const (
	spanQuery    = "query"        // root: one per query, its id is the query id
	spanEval     = "query.eval"   // the system's own Eval of the query
	spanObsOn    = "obs.on"       // serve: the same Eval again, telemetry on
	spanObsOff   = "obs.off"      // serve: the same Eval, telemetry off
	spanReplay   = "replay"       // the query split into layer calls
	spanMap      = "encoding.map" // Mapping.CodeOf over the leaf's values
	spanMinimize = "boolmin.minimize"
	spanCompile  = "boolmin.compile"
	spanKernel   = "boolmin.kernel" // bitvec.New + Program.EvalInto
	spanRange    = "core.range"     // OrderedIndex.Range
	spanLeaf     = "core.leaf"      // one Eq/In leaf: the replay's glue, or on serve the Synced call less the split's map and kernel
	spanSplit    = "leaf.split"     // serve: the Synced leaf split into layer calls on a copy of its state
	spanCombine  = "query.combine"  // bitvec And/Or/Not across leaves
	spanObserve  = "drift.observe"  // drift.Recorder.ObserveSelection
)

// layerSpans are the spans whose self time is attributed to a layer when
// they run inside a replay.
var layerSpans = []string{spanMap, spanMinimize, spanCompile, spanKernel, spanRange, spanLeaf, spanCombine, spanObserve}

// span is one timed interval. Times are nanoseconds since the tracer
// started; parent is an index into the tracer's spans, -1 for a root.
type span struct {
	Query  int    `json:"query"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of a run in memory, in start order, so a
// parent always precedes its children. It is single-threaded: spans
// nest through an explicit stack of open spans.
type tracer struct {
	base  time.Time
	spans []span
	open  []int
	query int
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// beginQuery opens the root span of query q; endQuery closes it.
func (t *tracer) beginQuery(q int) {
	t.query = q
	t.open = t.open[:0]
	t.start(spanQuery)
}

func (t *tracer) endQuery() { t.end() }

// start opens a span under the innermost open span.
func (t *tracer) start(name string) {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Query: t.query, ID: id, Parent: parent, Name: name, Start: t.now()})
	t.open = append(t.open, id)
}

// end closes the innermost open span.
func (t *tracer) end() {
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = t.now()
}

// selfTimes returns each span's duration less the time its direct
// children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		d := s.End - s.Start
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	return self
}

// traceSummary is what the per-layer metrics are computed from.
type traceSummary struct {
	queries           int
	layerNS           map[string]int64 // self time per layer, inside replays only
	evalNS            []float64        // per-query duration of query.eval
	obsOnNS, obsOffNS int64            // total duration of obs.on and obs.off spans
	obsQueries        int
}

func summarize(spans []span) traceSummary {
	sum := traceSummary{layerNS: make(map[string]int64)}
	self := selfTimes(spans)
	inReplay := make([]bool, len(spans))
	for i, s := range spans {
		inReplay[i] = s.Name == spanReplay || (s.Parent >= 0 && inReplay[s.Parent])
		switch d := s.End - s.Start; s.Name {
		case spanQuery:
			sum.queries++
		case spanEval:
			sum.evalNS = append(sum.evalNS, float64(d))
		case spanObsOn:
			sum.obsOnNS += d
			sum.obsQueries++
		case spanObsOff:
			sum.obsOffNS += d
		default:
			if inReplay[i] && s.Name != spanReplay && s.Name != spanSplit {
				sum.layerNS[s.Name] += self[i]
			}
			if s.Parent >= 0 && spans[s.Parent].Name == spanSplit && (s.Name == spanMap || s.Name == spanKernel) {
				// A split re-does the map and kernel of the core.leaf
				// before it; its minimize and compile, which run only
				// where the Eval missed the program cache, are not in
				// that leaf.
				sum.layerNS[spanLeaf] -= d
			}
		}
	}
	return sum
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
