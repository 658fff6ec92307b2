package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	// query [0,100) > eval [0,40) ; replay [40,100) > leaf [45,90) > kernel [50,80)
	spans := []span{
		{ID: 0, Parent: -1, Name: spanQuery, Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: spanEval, Start: 0, End: 40},
		{ID: 2, Parent: 0, Name: spanReplay, Start: 40, End: 100},
		{ID: 3, Parent: 2, Name: spanLeaf, Start: 45, End: 90},
		{ID: 4, Parent: 3, Name: spanKernel, Start: 50, End: 80},
	}
	want := []int64{0, 40, 15, 15, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
	sum := summarize(spans)
	if sum.queries != 1 || len(sum.evalNS) != 1 || sum.evalNS[0] != 40 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.layerNS[spanLeaf] != 15 || sum.layerNS[spanKernel] != 30 || len(sum.layerNS) != 2 {
		t.Errorf("layer self times = %v, want leaf 15 and kernel 30", sum.layerNS)
	}
}

func TestLayerSpansOutsideReplayAreNotAttributed(t *testing.T) {
	// A drift.observe span under query.eval (the observer firing inside
	// the system's own Eval) belongs to no layer; the one inside the
	// replay does.
	spans := []span{
		{ID: 0, Parent: -1, Name: spanQuery, Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: spanEval, Start: 0, End: 50},
		{ID: 2, Parent: 1, Name: spanObserve, Start: 10, End: 20},
		{ID: 3, Parent: 0, Name: spanReplay, Start: 50, End: 100},
		{ID: 4, Parent: 3, Name: spanLeaf, Start: 50, End: 100},
		{ID: 5, Parent: 4, Name: spanObserve, Start: 60, End: 65},
	}
	sum := summarize(spans)
	if sum.layerNS[spanObserve] != 5 || sum.layerNS[spanLeaf] != 45 {
		t.Errorf("layer self times = %v, want observe 5 and leaf 45", sum.layerNS)
	}
}

func TestTracerNestsAndWrites(t *testing.T) {
	tr := newTracer()
	tr.beginQuery(7)
	tr.start(spanEval)
	tr.end()
	tr.start(spanReplay)
	tr.start(spanLeaf)
	tr.end()
	tr.end()
	tr.endQuery()
	wantParents := []int{-1, 0, 0, 2}
	if len(tr.spans) != len(wantParents) {
		t.Fatalf("got %d spans, want %d", len(tr.spans), len(wantParents))
	}
	for i, s := range tr.spans {
		if s.Parent != wantParents[i] || s.Query != 7 || s.End < s.Start {
			t.Errorf("span %d = %+v", i, s)
		}
	}
	path := t.TempDir() + "/spans.jsonl"
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var first span
	if err := json.Unmarshal(data[:bytes.IndexByte(data, '\n')], &first); err != nil || first.Name != spanQuery {
		t.Errorf("first written span = %+v, %v", first, err)
	}
}

func TestSplitTimeComesOutOfTheLeaf(t *testing.T) {
	// On serve a Synced leaf [10,60) holds the observer [50,55); the split
	// [60,120) re-does its map [62,64) and kernel [85,115) on a copy, and
	// minimizes [65,80) and compiles [80,84) because the Eval before it
	// missed the program cache. The leaf's 50 is observe 5, map 2, kernel
	// 30 and 13 left to core.leaf; the minimize and compile are added to
	// it, not taken out of the leaf, which found the program cached.
	spans := []span{
		{ID: 0, Parent: -1, Name: spanQuery, Start: 0, End: 120},
		{ID: 1, Parent: 0, Name: spanReplay, Start: 10, End: 120},
		{ID: 2, Parent: 1, Name: spanLeaf, Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: spanObserve, Start: 50, End: 55},
		{ID: 4, Parent: 1, Name: spanSplit, Start: 60, End: 120},
		{ID: 5, Parent: 4, Name: spanMap, Start: 62, End: 64},
		{ID: 6, Parent: 4, Name: spanMinimize, Start: 65, End: 80},
		{ID: 7, Parent: 4, Name: spanCompile, Start: 80, End: 84},
		{ID: 8, Parent: 4, Name: spanKernel, Start: 85, End: 115},
	}
	sum := summarize(spans)
	want := map[string]int64{spanLeaf: 13, spanObserve: 5, spanMap: 2, spanKernel: 30, spanMinimize: 15, spanCompile: 4}
	var total int64
	for name, ns := range sum.layerNS {
		total += ns
		if ns != want[name] {
			t.Errorf("%s = %d, want %d", name, ns, want[name])
		}
	}
	if total != 50+15+4 {
		t.Errorf("layer total = %d, want the leaf's 50 plus minimize and compile", total)
	}
}
