package query

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultPlanCacheSize is the plan-cache capacity NewEngine uses when the
// caller passes a non-positive size.
const DefaultPlanCacheSize = 128

// Prepared is a parsed query bound to a cached (or freshly built) plan.
// The plan is keyed on the query's normalized shape, so the variable
// names here are this parse's own; slot order is first-occurrence order
// in both.
type Prepared struct {
	Query *Query
	Shape string
	plan  *plan
}

// Engine answers queries over one frozen union KB, caching plans by
// normalized query shape in a bounded LRU. It is safe for concurrent use;
// concurrent first queries of one shape plan it once.
type Engine struct {
	kb *KB

	mu      sync.Mutex
	byShape map[string]*list.Element
	lru     *list.List // of *cacheEntry, front = most recent
	cap     int

	hits, misses atomic.Uint64
}

type cacheEntry struct {
	shape string
	plan  *plan
	ready chan struct{} // closed once plan is set
}

// NewEngine returns an engine over kb with a plan cache of the given
// capacity (<= 0 selects DefaultPlanCacheSize).
func NewEngine(kb *KB, planCacheSize int) *Engine {
	if planCacheSize <= 0 {
		planCacheSize = DefaultPlanCacheSize
	}
	return &Engine{
		kb:      kb,
		byShape: make(map[string]*list.Element, planCacheSize),
		lru:     list.New(),
		cap:     planCacheSize,
	}
}

// KB returns the engine's union KB.
func (e *Engine) KB() *KB { return e.kb }

// CacheStats returns the cumulative plan-cache hit and miss counts.
func (e *Engine) CacheStats() (hits, misses uint64) {
	return e.hits.Load(), e.misses.Load()
}

// Prepare parses src and returns its plan, from the cache when the shape
// has been planned before. The boolean reports a cache hit.
func (e *Engine) Prepare(src string) (*Prepared, bool, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, false, err
	}
	shape := q.Shape()
	e.mu.Lock()
	if el, ok := e.byShape[shape]; ok {
		e.lru.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		e.mu.Unlock()
		// The entry may still be pending: wait for its first caller's
		// plan rather than planning the shape again.
		<-ent.ready
		e.hits.Add(1)
		return &Prepared{Query: q, Shape: shape, plan: ent.plan}, true, nil
	}
	// A miss inserts a pending entry and plans outside the lock, so
	// concurrent callers of this shape wait for one plan and other shapes
	// never wait.
	ent := &cacheEntry{shape: shape, ready: make(chan struct{})}
	e.byShape[shape] = e.lru.PushFront(ent)
	for e.lru.Len() > e.cap {
		oldest := e.lru.Back()
		e.lru.Remove(oldest)
		delete(e.byShape, oldest.Value.(*cacheEntry).shape)
	}
	e.mu.Unlock()
	e.misses.Add(1)
	ent.plan = e.kb.newPlan(q)
	close(ent.ready)
	return &Prepared{Query: q, Shape: shape, plan: ent.plan}, false, nil
}

// Execute runs a prepared plan under ctx. Stats.CacheHit and
// Stats.PlanTime are left for the caller (see Query), which knows how the
// plan was obtained.
func (e *Engine) Execute(ctx context.Context, p *Prepared, opts ExecOptions) (*Result, error) {
	start := time.Now()
	res, err := e.kb.execute(ctx, p.plan, p.Query.Vars, opts)
	if err != nil {
		return nil, err
	}
	res.Stats.ExecTime = time.Since(start)
	return res, nil
}

// Query parses, plans (through the cache), and executes src.
func (e *Engine) Query(ctx context.Context, src string, opts ExecOptions) (*Result, error) {
	start := time.Now()
	prep, hit, err := e.Prepare(src)
	if err != nil {
		return nil, err
	}
	planTime := time.Since(start)
	res, err := e.Execute(ctx, prep, opts)
	if err != nil {
		return nil, err
	}
	res.Stats.CacheHit = hit
	res.Stats.PlanTime = planTime
	return res, nil
}
