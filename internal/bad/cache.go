package bad

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"sync"
	"sync/atomic"

	"chop/internal/dfg"
	"chop/internal/lib"
)

// defaultCacheCapacity bounds a PredictCache built with capacity <= 0.
const defaultCacheCapacity = 512

// PredictCache is a content-keyed, LRU-bounded memo cache for Predict.
// Advisor move loops, KL sweeps and `chop serve` job bursts re-predict
// partitions whose content has not changed between runs; keying on the
// partition's full prediction-relevant content (graph structure, library,
// style, clocks, pruning bounds — see CacheKey) lets those calls return the
// previously computed Result without re-running the design-space sweep.
//
// The cache is safe for concurrent use and nil-safe: a nil *PredictCache
// never hits and ignores stores, so callers need no guards. Cached Results
// are shared, not copied; the search pipeline treats designs as immutable,
// and callers that mutate a cached Result would corrupt later hits.
type PredictCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used
	entries map[string]*list.Element

	hits, misses atomic.Int64
}

type cacheEntry struct {
	key string
	res Result
}

// NewPredictCache builds a cache bounded to capacity entries; capacity <= 0
// selects the default (512).
func NewPredictCache(capacity int) *PredictCache {
	if capacity <= 0 {
		capacity = defaultCacheCapacity
	}
	return &PredictCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element, capacity),
	}
}

// Get returns the cached Result for key, marking the entry most recently
// used. The second return reports whether the key was present.
func (c *PredictCache) Get(key string) (Result, bool) {
	if c == nil {
		return Result{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		return Result{}, false
	}
	c.order.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry).res, true
}

// Put stores res under key, evicting the least recently used entry once the
// capacity is exceeded. Storing an existing key refreshes its recency.
func (c *PredictCache) Put(key string, res Result) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// Len returns the current entry count.
func (c *PredictCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// CacheStats is a point-in-time snapshot of the hit/miss counters.
type CacheStats struct {
	Hits, Misses int64
}

// HitRate returns hits / lookups, or 0 before the first lookup.
func (s CacheStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// Stats snapshots the lookup counters.
func (c *PredictCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// CacheKey derives the content key one Predict call is memoized under: a
// hash over every input that can change the prediction's outcome —
//
//   - the graph's structure: per node (in ID order) the operation, bit
//     width and memory-block binding, plus every edge (node names are
//     excluded: renaming nodes cannot change a prediction),
//   - the component library: every module's name, op, width, area, delay
//     and power, plus the register and mux cells,
//   - the architecture style and clock configuration,
//   - the level-1 pruning knobs (area/perf/delay bounds, KeepAll) and the
//     sweep knobs (MaxII, MaxRepair, ForceDirected).
//
// Two calls with equal keys produce identical Results, so cache hits are
// safe across different partitionings, advisor sessions and server jobs.
func CacheKey(g *dfg.Graph, cfg Config) string {
	b := make([]byte, 0, 64*(len(g.Nodes)+len(cfg.Lib.Modules)+4))
	b = appendGraphKey(b, g)
	l := cfg.Lib
	b = append(b, "lib|"...)
	b = append(b, l.Name...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(len(l.Modules)), 10)
	b = append(b, ';')
	for _, m := range l.Modules {
		b = appendModuleKey(b, m.Name, m)
	}
	b = appendModuleKey(b, "reg", l.Register)
	b = appendModuleKey(b, "mux", l.Mux)
	maxRepair := cfg.MaxRepair
	if maxRepair <= 0 {
		maxRepair = 6 // Predict's default; keep standalone keys consistent
	}
	b = append(b, "style"...)
	for _, t := range []bool{cfg.Style.MultiCycle, cfg.Style.NoPipelined, cfg.Style.NoNonPipelined, cfg.Style.Testability} {
		b = strconv.AppendBool(append(b, '|'), t)
	}
	b = append(b, ";clk|"...)
	b = appendFloat(b, cfg.Clocks.MainNS)
	b = strconv.AppendInt(append(b, '|'), int64(cfg.Clocks.DatapathMult), 10)
	b = strconv.AppendInt(append(b, '|'), int64(cfg.Clocks.TransferMult), 10)
	b = append(b, ";bound"...)
	for _, f := range []float64{cfg.MaxArea, cfg.Perf.Bound, cfg.Perf.MinProb, cfg.Delay.Bound, cfg.Delay.MinProb} {
		b = appendFloat(append(b, '|'), f)
	}
	b = strconv.AppendBool(append(b, '|'), cfg.KeepAll)
	b = append(b, ";sweep|"...)
	b = strconv.AppendInt(b, int64(cfg.MaxII), 10)
	b = strconv.AppendInt(append(b, '|'), int64(maxRepair), 10)
	b = strconv.AppendBool(append(b, '|'), cfg.ForceDirected)
	b = append(b, ';')
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// appendGraphKey appends the graph's structure to a cache key.
func appendGraphKey(b []byte, g *dfg.Graph) []byte {
	b = append(b, "g|"...)
	b = strconv.AppendInt(b, int64(len(g.Nodes)), 10)
	b = strconv.AppendInt(append(b, '|'), int64(len(g.Edges)), 10)
	b = append(b, ';')
	for _, n := range g.Nodes {
		b = append(append(b, "n|"...), n.Op...)
		b = strconv.AppendInt(append(b, '|'), int64(n.Width), 10)
		b = append(append(b, '|'), n.Mem...)
		b = append(b, ';')
	}
	for _, e := range g.Edges {
		b = strconv.AppendInt(append(b, "e|"...), int64(e.From), 10)
		b = strconv.AppendInt(append(b, '|'), int64(e.To), 10)
		b = append(b, ';')
	}
	return b
}

// appendModuleKey appends one module, under tag, to a cache key.
func appendModuleKey(b []byte, tag string, m lib.Module) []byte {
	b = append(append(b, "m|"...), tag...)
	b = append(append(b, '|'), m.Name...)
	b = append(append(b, '|'), m.Op...)
	b = strconv.AppendInt(append(b, '|'), int64(m.Width), 10)
	for _, f := range []float64{m.Area, m.Delay, m.Power} {
		b = appendFloat(append(b, '|'), f)
	}
	return append(b, ';')
}

// appendFloat appends f as fmt's %g verb prints it: the shortest
// representation that round-trips.
func appendFloat(b []byte, f float64) []byte {
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}
