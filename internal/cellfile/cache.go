package cellfile

import (
	"container/list"
	"sync"
	"sync/atomic"

	"x3/internal/obs"
)

// readerGen hands every IndexedReader a distinct cache-key namespace, so
// a shared BlockCache survives a reader swap (serving refresh) without
// ever returning a stale predecessor block.
var readerGen atomic.Uint64

func nextReaderGen() uint64 { return readerGen.Add(1) }

// DefaultBlockBytes is the nominal size of DefaultBlockCells row-encoded
// cells — the unit default cache budgets are stated in.
const DefaultBlockBytes = 16 << 10

// BlockCache is a byte-budgeted LRU over decoded index blocks. It is safe
// for concurrent use and may be shared by any number of readers. Each
// entry is charged its block's *encoded* length: residency is measured in
// on-disk bytes, so a columnar block that compresses 5x occupies 5x less
// budget than its row-wise encoding would and the same budget holds 5x
// more cuboids — which is the point of compressing them. (The decoded
// cells the cache actually holds are the same size either way; the budget
// prices what the compression saved, not Go heap bytes.)
type BlockCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List
	m      map[blockKey]*list.Element
	gauge  *obs.Gauge // serve.cache.bytes, nil-safe
}

type blockKey struct {
	gen   uint64
	block int
}

type blockEntry struct {
	key   blockKey
	cells []Cell
	cost  int64
}

// NewBlockCacheBytes returns a cache that evicts least-recently-used
// blocks once the sum of cached encoded block lengths exceeds budget
// (minimum one block stays resident regardless).
func NewBlockCacheBytes(budget int64) *BlockCache {
	if budget < 1 {
		budget = 1
	}
	return &BlockCache{budget: budget, ll: list.New(), m: make(map[blockKey]*list.Element)}
}

// Observe resolves the serve.cache.bytes gauge against reg, tracking the
// cache's current encoded-byte residency. A nil registry leaves it off.
func (c *BlockCache) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gauge = reg.Gauge("serve.cache.bytes")
	c.gauge.Set(c.bytes)
}

// Len returns the number of cached blocks.
func (c *BlockCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the total encoded length of the cached blocks.
func (c *BlockCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Budget returns the cache's byte budget.
func (c *BlockCache) Budget() int64 { return c.budget }

func (c *BlockCache) get(gen uint64, block int) ([]Cell, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[blockKey{gen, block}]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*blockEntry).cells, true
}

// put inserts the decoded block under its key, charging cost bytes (the
// block's encoded length; a floor of 1 keeps degenerate entries evictable).
func (c *BlockCache) put(gen uint64, block int, cells []Cell, cost int64) {
	if cost < 1 {
		cost = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := blockKey{gen, block}
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*blockEntry)
		c.bytes += cost - e.cost
		e.cells, e.cost = cells, cost
	} else {
		c.ll.PushFront(&blockEntry{key: key, cells: cells, cost: cost})
		c.m[key] = c.ll.Front()
		c.bytes += cost
	}
	for c.bytes > c.budget && c.ll.Len() > 1 {
		back := c.ll.Back()
		e := back.Value.(*blockEntry)
		c.ll.Remove(back)
		delete(c.m, e.key)
		c.bytes -= e.cost
	}
	c.gauge.Set(c.bytes)
}
