package plan

import (
	"sync"

	"magnet/internal/itemset"
)

// epoch stamps a cache generation. A cached result set is valid exactly
// while the graph is unmutated (its Version) and the engine's universe is
// unchanged (its UniverseEpoch — core.Magnet re-installs the universe
// source whenever the item set changes, so item additions and removals bump it even
// when they do not touch the graph).
type epoch struct {
	graph    uint64
	universe uint64
}

// entry is one cached query result on the cache's intrusive recency list.
type entry struct {
	key        string
	result     itemset.Set
	prev, next *entry
}

// cache is a bounded, mutex-guarded LRU of frozen query results keyed by
// the canonical Query.Key(). The stored itemsets are immutable by the
// repo's freeze discipline (posting views are copy-on-write, evaluation
// outputs are freshly built), so handing a cached set to many concurrent
// sessions is safe without copying. A whole generation is dropped the
// moment a lookup arrives under a newer epoch: navigation caches are
// cheap to refill and a stale result is a correctness bug, not a
// performance one.
type cache struct {
	mu         sync.Mutex
	cap        int
	ep         epoch
	items      map[string]*entry
	head, tail *entry // head = most recently used
}

func newCache(capacity int) *cache {
	return &cache{cap: capacity, items: make(map[string]*entry, capacity)}
}

// refreshLocked clears the cache when ep is newer than the resident
// generation. Callers hold c.mu.
func (c *cache) refreshLocked(ep epoch) {
	if ep == c.ep {
		return
	}
	c.ep = ep
	c.items = make(map[string]*entry, c.cap)
	c.head, c.tail = nil, nil
}

// get returns the cached result for key under ep, promoting it to most
// recently used.
func (c *cache) get(ep epoch, key string) (itemset.Set, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.refreshLocked(ep)
	en, ok := c.items[key]
	if !ok {
		return itemset.Set{}, false
	}
	c.promoteLocked(en)
	return en.result, true
}

// put stores a result under ep and returns how many entries were evicted
// to stay within capacity.
func (c *cache) put(ep epoch, key string, result itemset.Set) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.refreshLocked(ep)
	if en, ok := c.items[key]; ok {
		en.result = result
		c.promoteLocked(en)
		return 0
	}
	en := &entry{key: key, result: result}
	c.items[key] = en
	c.pushFrontLocked(en)
	evicted := 0
	for len(c.items) > c.cap && c.tail != nil {
		drop := c.tail
		c.unlinkLocked(drop)
		delete(c.items, drop.key)
		evicted++
	}
	return evicted
}

// len reports the resident entry count (tests only).
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

func (c *cache) promoteLocked(en *entry) {
	if c.head == en {
		return
	}
	c.unlinkLocked(en)
	c.pushFrontLocked(en)
}

func (c *cache) pushFrontLocked(en *entry) {
	en.prev = nil
	en.next = c.head
	if c.head != nil {
		c.head.prev = en
	}
	c.head = en
	if c.tail == nil {
		c.tail = en
	}
}

func (c *cache) unlinkLocked(en *entry) {
	if en.prev != nil {
		en.prev.next = en.next
	} else {
		c.head = en.next
	}
	if en.next != nil {
		en.next.prev = en.prev
	} else {
		c.tail = en.prev
	}
	en.prev, en.next = nil, nil
}
