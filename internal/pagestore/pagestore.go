// Package pagestore simulates the disk layer the paper's cost model
// assumes (footnote 4: "comparing with the disk access costs, it is
// reasonable to ignore the CPU time"). Bitmap vectors are laid out as
// runs of fixed-size pages; a buffer cache with LRU replacement tracks
// which vector reads actually hit the disk. Wrapping an encoded bitmap
// index in a PagedIndex turns the paper's "number of bitmap vectors
// accessed" into page faults, including the caching effects repeated
// predefined selections enjoy.
package pagestore

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/obs"
)

// Buffer-cache telemetry: every Touch is one page request; misses are the
// page reads that would hit disk in the paper's footnote-4 model.
var (
	mPageHits = obs.Default().Counter("ebi_page_cache_hits_total",
		"Page requests served from the buffer cache.")
	mPageMisses = obs.Default().Counter("ebi_page_cache_misses_total",
		"Page requests that went to disk (buffer-cache misses).")
	mPageEvictions = obs.Default().Counter("ebi_page_cache_evictions_total",
		"Pages evicted from the buffer cache.")
)

// PageID identifies one page of one stored vector.
type PageID struct {
	Vector int
	Page   int
}

// Stats counts simulated I/O.
type Stats struct {
	Hits      int // page requests served from the buffer cache
	Misses    int // page requests that went to "disk"
	Evictions int
}

// HitRate returns hits / (hits+misses), or 0 with no traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is an LRU buffer cache over pages, safe for concurrent use:
// queries on one paged index from several goroutines share it.
type Cache struct {
	capacity int
	mu       sync.Mutex
	lru      *list.List               // front = most recent
	pages    map[PageID]*list.Element // element value is PageID
	stats    Stats
}

// NewCache returns a cache holding up to capacity pages. Capacity must be
// positive.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		panic(fmt.Sprintf("pagestore: capacity %d <= 0", capacity))
	}
	return &Cache{
		capacity: capacity,
		lru:      list.New(),
		pages:    make(map[PageID]*list.Element, capacity),
	}
}

// Capacity returns the page capacity.
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the number of resident pages.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns the accumulated counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ResetStats zeroes the counters without evicting pages.
func (c *Cache) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = Stats{}
}

// Touch requests one page, returning true on a cache hit.
func (c *Cache) Touch(id PageID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.pages[id]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		mPageHits.Inc()
		return true
	}
	c.stats.Misses++
	mPageMisses.Inc()
	if c.lru.Len() >= c.capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.pages, oldest.Value.(PageID))
		c.stats.Evictions++
		mPageEvictions.Inc()
	}
	c.pages[id] = c.lru.PushFront(id)
	return false
}

// ReadRun requests pages [0, nPages) of a vector, returning how many hit.
func (c *Cache) ReadRun(vector, nPages int) (hits int) {
	for p := 0; p < nPages; p++ {
		if c.Touch(PageID{Vector: vector, Page: p}) {
			hits++
		}
	}
	return hits
}

// Layout describes how vectors map onto pages.
type Layout struct {
	PageSize int // bytes per page
	RowBytes int // bytes per vector: ceil(rows/8), fixed per store
}

// NewLayout builds a layout for vectors over the given row count.
func NewLayout(rows, pageSize int) Layout {
	if pageSize <= 0 {
		panic(fmt.Sprintf("pagestore: page size %d <= 0", pageSize))
	}
	if rows < 0 {
		panic("pagestore: negative rows")
	}
	return Layout{PageSize: pageSize, RowBytes: (rows + 7) / 8}
}

// PagesPerVector returns how many pages one bitmap vector occupies.
func (l Layout) PagesPerVector() int {
	if l.RowBytes == 0 {
		return 0
	}
	return (l.RowBytes + l.PageSize - 1) / l.PageSize
}
