package optimizer

// plancache.go is the prepared-plan cache behind DB.QueryContext: an LRU
// map from statement fingerprints to bound-and-optimized plans. Analytic
// serving workloads repeat a small set of statement templates, so skipping
// parse/bind/optimize on repeats removes the per-request planning cost the
// moment a statement is seen twice.
//
// Cached plans are immutable by convention: binding and optimization
// produce structures that both executors only read, so one cached plan can
// back any number of concurrent executions. Consistency with the stored
// data is enforced by a version number — every DDL or import bumps the
// database's version, and a Get or Put carrying a newer version than the
// cache's flushes everything cached against the old schema.

import (
	"container/list"
	"fmt"
	"strings"
	"sync"

	"castle/internal/plan"
)

// CachedPlan is one prepared statement: the bound logical query and, for
// executions that go through the optimizer, the physical plan. Phys is nil
// when preparation stopped at binding (the cluster coordinator's, whose
// nodes optimize against their own shards).
type CachedPlan struct {
	Bound *plan.Query
	Phys  *plan.Physical
}

// Fingerprint derives the plan-cache key for a statement prepared under a
// device class and optimizer inputs. Everything that can change the bound
// or physical plan must land in the key: the SQL text, the preparation
// class ("cluster" preparations stop at binding, "phys" ones optimize), the vector
// length the optimizer partitions by, and any forced plan shape. Execution
// knobs that leave the plan untouched (fusion, MKS buffer, enhancements)
// deliberately do not fragment the key.
func Fingerprint(sqlText, deviceClass string, maxvl int, shape plan.Shape, shapeForced bool) string {
	sh := "auto"
	if shapeForced {
		sh = shape.String()
	}
	return fmt.Sprintf("%s|%s|%d|%s", deviceClass, sh, maxvl, strings.TrimSpace(sqlText))
}

// Token folds the statistics epoch into the version token the plan cache
// invalidates on. Plans are now priced from histograms, so a statistics
// refresh stales every cached placement even when the schema version alone
// would not have moved — the cache must see a different token whenever
// either input changes. syncVersion flushes on any difference (no
// monotonicity assumption), so a mixed token is safe; the multiplier keeps
// (version, epoch) pairs from colliding under small deltas.
func Token(version, statsEpoch uint64) uint64 {
	x := version ^ (statsEpoch * 0x9e3779b97f4a7c15)
	x ^= x >> 32
	return x
}

// DefaultPlanCacheCapacity bounds the cache when the caller passes no
// capacity. Serving workloads cycle through tens of statement templates;
// 256 keeps them all resident while bounding a pathological client that
// never repeats a statement.
const DefaultPlanCacheCapacity = 256

// PlanCacheStats is a point-in-time snapshot of cache effectiveness.
type PlanCacheStats struct {
	Hits      int64
	Misses    int64
	Entries   int
	Evictions int64
	// Flushes counts whole-cache invalidations from schema/data changes.
	Flushes int64
}

// PlanCache is a thread-safe LRU of prepared plans, invalidated wholesale
// when the database version moves.
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	version  uint64
	order    *list.List // front = most recently used; values are *cacheEntry
	byKey    map[string]*list.Element

	hits, misses, evictions, flushes int64
}

type cacheEntry struct {
	key  string
	plan CachedPlan
}

// NewPlanCache returns an empty cache holding up to capacity plans
// (capacity <= 0 selects DefaultPlanCacheCapacity).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheCapacity
	}
	return &PlanCache{
		capacity: capacity,
		order:    list.New(),
		byKey:    make(map[string]*list.Element),
	}
}

// syncVersion flushes the cache if the caller's database version differs
// from the one the entries were prepared against. Called with mu held.
func (c *PlanCache) syncVersion(version uint64) {
	if version == c.version {
		return
	}
	if c.order.Len() > 0 {
		c.flushes++
	}
	c.order.Init()
	c.byKey = make(map[string]*list.Element)
	c.version = version
}

// Get returns the cached plan for key if one was prepared against the given
// database version. A version mismatch invalidates the whole cache (a
// schema or data change stales every plan, not just this statement's).
func (c *PlanCache) Get(key string, version uint64) (CachedPlan, bool) {
	if c == nil {
		return CachedPlan{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncVersion(version)
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return CachedPlan{}, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).plan, true
}

// Put stores a prepared plan under key for the given database version,
// evicting the least recently used entry when the cache is full.
func (c *PlanCache) Put(key string, version uint64, p CachedPlan) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncVersion(version)
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).plan = p
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
	c.byKey[key] = c.order.PushFront(&cacheEntry{key: key, plan: p})
}

// Purge drops every entry (statistics are preserved).
func (c *PlanCache) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.byKey = make(map[string]*list.Element)
}

// Stats snapshots the cache counters.
func (c *PlanCache) Stats() PlanCacheStats {
	if c == nil {
		return PlanCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Entries:   c.order.Len(),
		Evictions: c.evictions,
		Flushes:   c.flushes,
	}
}
