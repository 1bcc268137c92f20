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

// DefaultBlockBytes is the nominal heap of one decoded block:
// DefaultBlockCells cells at the size of a Cell, keys aside — the unit
// default cache budgets are stated in.
const DefaultBlockBytes = 16 << 10

// BlockCache is a byte-budgeted LRU over decoded index blocks. It is safe
// for concurrent use and may be shared by any number of readers. Each
// entry is charged the Go heap it holds — its cells plus their keys — so
// the budget bounds memory: the cache's resident heap stays within the
// budget plus the one block last inserted. A read whose cells alone
// exceed the budget does not insert at all (see IndexedReader.keeps).
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
// blocks once the heap of the cached blocks exceeds budget bytes
// (minimum one block stays resident regardless).
func NewBlockCacheBytes(budget int64) *BlockCache {
	if budget < 1 {
		budget = 1
	}
	return &BlockCache{budget: budget, ll: list.New(), m: make(map[blockKey]*list.Element)}
}

// Observe resolves the serve.cache.bytes gauge against reg, tracking the
// cache's current heap in bytes. A nil registry leaves it off.
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

// Bytes returns the heap of the cached blocks, cells and keys.
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
// heap of its cells and keys; a floor of 1 keeps degenerate entries
// evictable). The cells are the cache's from here on: nothing may write
// them.
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
