package obs

import "runtime/metrics"

// Resources is a point-in-time resource snapshot, taken at span start
// and end and by the planner around each plan node. Two snapshots
// subtract (Sub) to a window's CPU time and heap allocation.
//
// CPUNanos is the calling thread's CPU clock (CLOCK_THREAD_CPUTIME_ID on
// linux, 0 elsewhere). A window reads one goroutine's CPU time only while
// that goroutine stays on one thread: spans lock it there from start to
// End, and so does the planner around an analyzed evaluation. An
// unpinned window that spans a migration is meaningless; its delta
// clamps at zero rather than going negative.
// AllocBytes/AllocObjects are the process-global cumulative
// heap-allocation counters from runtime/metrics: deltas are exact when
// one query runs at a time and an upper bound under concurrency. The
// runtime folds small allocations into these counters only when an
// mcache span is refilled, so windows that allocate a few KiB may read
// as zero; allocations over 32KiB (e.g. multi-segment bit vectors) are
// recorded immediately.
type Resources struct {
	CPUNanos     int64
	AllocBytes   uint64
	AllocObjects uint64
}

// TakeResources snapshots the calling thread's CPU clock and the
// process heap-allocation counters.
func TakeResources() Resources {
	samples := [2]metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(samples[:])
	r := Resources{CPUNanos: threadCPUNanos()}
	if samples[0].Value.Kind() == metrics.KindUint64 {
		r.AllocBytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		r.AllocObjects = samples[1].Value.Uint64()
	}
	return r
}

// Sub returns the window delta from prev to r, clamped at zero.
func (r Resources) Sub(prev Resources) Resources {
	var d Resources
	if r.CPUNanos > prev.CPUNanos {
		d.CPUNanos = r.CPUNanos - prev.CPUNanos
	}
	if r.AllocBytes > prev.AllocBytes {
		d.AllocBytes = r.AllocBytes - prev.AllocBytes
	}
	if r.AllocObjects > prev.AllocObjects {
		d.AllocObjects = r.AllocObjects - prev.AllocObjects
	}
	return d
}
