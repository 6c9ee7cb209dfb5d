package eval

import (
	"container/list"
	"sync"

	"gmark/internal/graph"
	"gmark/internal/graphgen"
)

// ShardCache is a concurrency-safe, byte-budgeted cache of CSR spill
// shards shared across evaluations — and, when one cache is handed to
// several SpillSources, across spills. It replaces the old
// per-SpillSource private LRU, whose N private copies made N
// concurrent evaluations of one spill pay the reload cliff N times.
//
// Misses are singleflight-deduplicated: the first goroutine to miss on
// a (spill, predicate, direction, range) key loads the shard file with
// no lock held, while every other goroutine missing on the same key
// blocks until that one load publishes — concurrent evaluators never
// read the same shard file twice.
//
// Entries can be pinned. An evaluating goroutine's private view of a
// SpillSource pins each shard it touches with one locked lookup, then
// reads it by array index until the view releases its pins at the end
// of its claimed node range. Eviction walks only loaded, unpinned
// entries from least recently used; in-flight and pinned entries are
// off the LRU list, so neither eviction nor Purge can touch them, and
// the last unpin puts an entry back on the list and re-runs eviction
// down to the budget. A shard admitted without a pin counts as pinned
// for its own admission. Residency therefore exceeds the budget only
// by the bytes currently pinned — one over-budget shard admitted
// alone is the smallest case — and evaluation always makes progress.
//
// Entries come in two kinds. Decoded entries own heap slices and are
// charged at their decoded size; mapped entries (raw shards under
// -spill-mmap) serve adjacency straight out of a file mapping, are
// charged at the mapped file size, and carry a release closure the
// cache runs — munmap — when the entry is evicted. A pinned mapping is
// never released. Because an unpinned Neighbors slice may still point
// into a mapping at the moment its entry is evicted by a concurrent
// evaluation, evictions that happen while any reader bracket
// (AcquireReader) is open retire the mapping instead of releasing it;
// the last reader to leave reclaims everything retired.
type ShardCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	peak    int64
	entries map[sharedShardKey]*cacheEntry
	order   *list.List // front = most recently used; loaded, unpinned entries only

	hits, loads, evictions, dedups int64
	diskLoaded                     int64 // cumulative on-disk bytes read by fresh loads
	prefetchLoads                  int64 // fresh loads initiated by a prefetcher
	mappedBytes                    int64 // resident bytes served from mappings

	readers int      // open AcquireReader brackets
	retired []func() // mappings evicted while readers > 0, to release
}

// sharedShardKey addresses one shard across every spill the cache
// serves; the opened-spill pointer is the spill's identity.
type sharedShardKey struct {
	spill *graphgen.CSRSpill
	pred  graph.PredID
	inv   bool
	idx   int // position in the direction's shard list
}

// cacheEntry is one shard in the cache: loading (done open, sh nil)
// or loaded (done closed, sh set). Only a loaded entry with no pins
// sits on the LRU list (elem non-nil) and can be evicted. sh and err
// are written exactly once, under mu, before done closes; pins and
// elem are guarded by mu.
type cacheEntry struct {
	key  sharedShardKey
	done chan struct{}
	sh   *cachedShard
	err  error
	elem *list.Element
	pins int
}

// loadOutcome classifies one cache access for per-evaluator
// attribution: a hit on a resident shard, a dedup hit (waited on
// another goroutine's in-flight load), or a fresh load from disk.
type loadOutcome int

const (
	loadHit loadOutcome = iota
	loadDedup
	loadFresh
)

// NewShardCache returns an empty cache bounded by budgetBytes of
// resident shard data (<= 0 selects DefaultSpillCacheBytes). Share one
// cache between SpillSources — or just share one SpillSource — to give
// a fleet of concurrent evaluations one pooled residency instead of a
// private working set each.
func NewShardCache(budgetBytes int64) *ShardCache {
	if budgetBytes <= 0 {
		budgetBytes = DefaultSpillCacheBytes
	}
	return &ShardCache{
		budget:  budgetBytes,
		entries: make(map[sharedShardKey]*cacheEntry),
		order:   list.New(),
	}
}

// Stats returns a snapshot of the cache-wide counters; BytesUsed and
// PeakBytes describe current and peak residency under the byte budget.
func (c *ShardCache) Stats() SpillCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return SpillCacheStats{
		Hits:            c.hits,
		Loads:           c.loads,
		Evictions:       c.evictions,
		DedupHits:       c.dedups,
		BytesUsed:       c.used,
		PeakBytes:       c.peak,
		DiskBytesLoaded: c.diskLoaded,
		MappedBytes:     c.mappedBytes,
		PrefetchLoads:   c.prefetchLoads,
	}
}

// AcquireReader opens a reader bracket: until the returned release
// runs, no mapping is unmapped — an eviction retires it instead, and
// the closing of the last bracket reclaims everything retired. The
// bracket is cheap (one counter) and reentrant across goroutines;
// every evaluation entry point takes it via AcquireSourceReader, which
// is what makes Neighbors slices into mappings safe against concurrent
// evictions.
func (c *ShardCache) AcquireReader() (release func()) {
	c.mu.Lock()
	c.readers++
	c.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			c.readers--
			var drain []func()
			if c.readers == 0 {
				drain, c.retired = c.retired, nil
			}
			c.mu.Unlock()
			for _, rel := range drain {
				rel()
			}
		})
	}
}

// Purge evicts every loaded, unpinned shard, releasing (or retiring,
// under an open reader bracket) their mappings, and leaves pinned
// entries and in-flight loads untouched. Statistics other than
// residency are preserved. Callers use it to return a cache to cold
// state — between cold-eval passes, or to assert that MappedBytes
// drains to zero.
func (c *ShardCache) Purge() {
	c.mu.Lock()
	var drain []func()
	for c.order.Len() > 0 {
		drain = append(drain, c.evictBack())
	}
	c.mu.Unlock()
	for _, rel := range drain {
		if rel != nil {
			rel()
		}
	}
}

// evictBack removes the least-recently-used loaded entry, adjusting
// residency accounting, and returns the mapping release to run outside
// the lock — nil for decoded entries, or when an open reader bracket
// forced the mapping onto the retired list instead. Callers hold mu
// and must guarantee the list is non-empty.
func (c *ShardCache) evictBack() (release func()) {
	back := c.order.Back()
	old := back.Value.(*cacheEntry)
	c.order.Remove(back)
	delete(c.entries, old.key)
	c.used -= old.sh.bytes
	c.evictions++
	if old.sh.release == nil {
		return nil
	}
	c.mappedBytes -= old.sh.bytes
	if c.readers > 0 {
		c.retired = append(c.retired, old.sh.release)
		return nil
	}
	return old.sh.release
}

// evictLocked evicts least-recently-used unpinned shards until
// residency is back under the budget or nothing evictable is left, and
// returns the mapping releases to run once mu is dropped — munmap is a
// syscall no other cache user should wait on. Callers hold mu.
func (c *ShardCache) evictLocked() (drain []func()) {
	for c.used > c.budget && c.order.Len() > 0 {
		if rel := c.evictBack(); rel != nil {
			drain = append(drain, rel)
		}
	}
	return drain
}

// pinLocked takes one pin on e, moving it off the LRU list on the
// first. Callers hold mu.
func (c *ShardCache) pinLocked(e *cacheEntry) {
	if e.pins == 0 && e.elem != nil {
		c.order.Remove(e.elem)
		e.elem = nil
	}
	e.pins++
}

// unpin drops one pin from each entry. An entry whose last pin goes
// returns to the LRU list as most recently used, and eviction then
// re-runs down to the budget.
func (c *ShardCache) unpin(es []*cacheEntry) {
	c.mu.Lock()
	for _, e := range es {
		e.pins--
		if e.pins == 0 {
			e.elem = c.order.PushFront(e)
		}
	}
	drain := c.evictLocked()
	c.mu.Unlock()
	for _, rel := range drain {
		rel()
	}
}

// get returns the cache entry for key, calling load — with no cache
// lock held — when the shard is neither resident nor already being
// loaded by another goroutine. A failed load is not cached: the next
// access retries, and every waiter of the failed flight receives the
// same error. pin takes a pin on the returned entry, which the caller
// must drop with unpin; it is registered before any wait, so the
// shard cannot be evicted between its load and the pinning caller's
// first read. prefetch marks the access as prefetcher-initiated for
// the PrefetchLoads counter; it changes no caching behavior.
func (c *ShardCache) get(key sharedShardKey, prefetch, pin bool, load func() (*cachedShard, error)) (*cacheEntry, loadOutcome, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if pin {
			c.pinLocked(e)
		}
		if e.sh != nil {
			if e.elem != nil {
				c.order.MoveToFront(e.elem)
			}
			c.hits++
			c.mu.Unlock()
			return e, loadHit, nil
		}
		// Another goroutine is loading this shard right now; wait for
		// its flight instead of reading the file a second time.
		c.dedups++
		c.mu.Unlock()
		<-e.done
		if e.err != nil {
			return nil, loadDedup, e.err
		}
		return e, loadDedup, nil
	}
	e := &cacheEntry{key: key, done: make(chan struct{})}
	if pin {
		e.pins = 1
	}
	c.entries[key] = e
	c.mu.Unlock()

	sh, err := load()

	c.mu.Lock()
	if err != nil {
		e.err = err
		delete(c.entries, key)
		close(e.done)
		c.mu.Unlock()
		return nil, loadFresh, err
	}
	e.sh = sh
	c.loads++
	if prefetch {
		c.prefetchLoads++
	}
	c.diskLoaded += sh.diskBytes
	c.used += sh.bytes
	if sh.release != nil {
		c.mappedBytes += sh.bytes
	}
	if c.used > c.peak {
		c.peak = c.used
	}
	// Evict down to the budget before listing the new entry, so the
	// shard just admitted survives its own admission even when it
	// alone exceeds the budget.
	drain := c.evictLocked()
	if e.pins == 0 {
		e.elem = c.order.PushFront(e)
	}
	close(e.done)
	c.mu.Unlock()
	for _, rel := range drain {
		rel()
	}
	return e, loadFresh, nil
}
