package replay

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"imtrans/internal/cfg"
)

// Key identifies a capture: a content hash of the program image plus any
// caller-supplied salt (benchmark identity and scale, for instance).
type Key [sha256.Size]byte

// ProgramKey hashes a program image and a salt into a cache key. Two
// programs with the same key are assumed to produce the same fetch stream,
// which holds whenever the run's memory setup is a deterministic function
// of the salted identity — the same contract MeasureProgram already
// imposes on its setup callback.
func ProgramKey(textBase uint32, text []uint32, dataBase uint32, data []byte, salt string) Key {
	h := sha256.New()
	var word [4]byte
	binary.LittleEndian.PutUint32(word[:], textBase)
	h.Write(word[:])
	for _, w := range text {
		binary.LittleEndian.PutUint32(word[:], w)
		h.Write(word[:])
	}
	binary.LittleEndian.PutUint32(word[:], dataBase)
	h.Write(word[:])
	h.Write(data)
	h.Write([]byte(salt))
	var k Key
	h.Sum(k[:0])
	return k
}

// Capture is everything one profiling run of a program yields: the
// compressed fetch trace, the execution profile, the data-bus totals, and
// the stream statistics that do not depend on the encoding configuration
// (baseline bus, the bus-invert and dictionary comparators). The run
// itself records the trace, the profile and the data bus; the stream
// statistics are derived from the trace once, right after it, and stored
// here so cached and persisted captures serve them without
// recomputation. Replaying a capture against an encoding reproduces
// MeasureProgram's output bit for bit without running the CPU again.
type Capture struct {
	Key   Key
	Base  uint32   // text base address
	Words []uint32 // original text image

	// Graph is the control-flow graph of the text image, built once at
	// capture time: it depends only on the image, so every configuration
	// replayed against the capture shares it instead of re-deriving it.
	Graph *cfg.Graph

	Trace        *Trace
	Profile      []uint64
	Instructions uint64

	BaselineTotal   uint64
	BaselinePerLine []uint64
	BusInvertTotal  uint64
	DictionaryTotal uint64
	DictionaryBits  int

	// The data-memory value bus of the run: loads and stores, raw
	// transitions, and Bus-Invert transitions with the invert line.
	DataLoads       uint64
	DataStores      uint64
	DataTransitions uint64
	DataBusInvert   uint64
}

// DefaultCacheLimit bounds the shared capture cache. Captures hold the
// full text image plus the compressed trace, so a long-lived sweep
// service measuring ever-new programs would otherwise grow without
// bound; 128 entries is far beyond any one grid's benchmark count.
const DefaultCacheLimit = 128

// Cache is an in-process capture cache with per-key single-flight: any
// number of goroutines may ask for the same program concurrently and
// exactly one profiling run happens. The cache holds at most limit
// entries; inserting past the cap evicts the oldest-inserted entry
// (FIFO), which an in-flight capture survives — its waiters hold the
// entry directly, the eviction only stops future reuse.
type Cache struct {
	mu    sync.Mutex
	m     map[Key]*cacheEntry
	order []Key // insertion order of live entries; drives eviction
	limit int

	hits, misses, evictions uint64

	// tier is the optional persistent layer (SetTier): read through on a
	// miss, written behind on a fresh capture. tierWG tracks in-flight
	// write-behind puts for FlushTier.
	tier               Tier
	tierWG             sync.WaitGroup
	tierHits, tierPuts uint64
}

type cacheEntry struct {
	once sync.Once
	cap  *Capture
	err  error
}

// NewCache returns an empty capture cache bounded at DefaultCacheLimit.
func NewCache() *Cache { return &Cache{m: make(map[Key]*cacheEntry), limit: DefaultCacheLimit} }

// Shared is the process-wide capture cache used by the imtrans facade.
var Shared = NewCache()

// SetLimit bounds the cache to n entries, returning the previous bound.
// Values below 1 are clamped to 1 — the cache is always bounded. If the
// cache currently holds more than n entries, the oldest are evicted
// immediately.
func (c *Cache) SetLimit(n int) int {
	if n < 1 {
		n = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.limit
	c.limit = n
	c.evictLocked()
	return prev
}

// Limit reports the current entry-count bound.
func (c *Cache) Limit() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.limit
}

// Len reports the number of cached captures.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// evictLocked drops oldest-inserted entries until the cache fits its
// limit. Caller holds c.mu.
func (c *Cache) evictLocked() {
	for len(c.m) > c.limit && len(c.order) > 0 {
		k := c.order[0]
		c.order = c.order[1:]
		if _, ok := c.m[k]; ok {
			delete(c.m, k)
			c.evictions++
		}
	}
}

// GetOrCapture returns the cached capture for key, running capture exactly
// once per key to produce it. A failed capture is cached too: determinism
// means retrying cannot help, and callers get the same error.
//
// With a persistent tier installed, a miss first tries the tier: a stored
// payload that decodes cleanly and carries the right key short-circuits
// the profiling run entirely (a restart or a sibling replica's work pays
// off here). A fresh capture is written behind to the tier
// asynchronously — the caller never waits on store I/O.
func (c *Cache) GetOrCapture(key Key, capture func() (*Capture, error)) (*Capture, error) {
	c.mu.Lock()
	e := c.m[key]
	tier := c.tier
	if e == nil {
		e = &cacheEntry{}
		c.m[key] = e
		c.order = append(c.order, key)
		c.misses++
		c.evictLocked()
	} else {
		c.hits++
	}
	c.mu.Unlock()
	e.once.Do(func() {
		if tier != nil {
			if data, terr := tier.Get(tierName(key)); terr == nil {
				if cap, derr := DecodeCapture(data); derr == nil && cap.Key == key {
					e.cap = cap
					c.mu.Lock()
					c.tierHits++
					c.mu.Unlock()
					return
				}
				// A payload that resolved but failed to decode or names a
				// different program is as good as absent: fall through and
				// re-profile (the fresh capture overwrites it below).
			}
		}
		e.cap, e.err = capture()
		if e.err == nil && tier != nil {
			if data, eerr := EncodeCapture(e.cap); eerr == nil {
				c.tierWG.Add(1)
				go func() {
					defer c.tierWG.Done()
					if tier.Put(tierName(key), data) == nil {
						c.mu.Lock()
						c.tierPuts++
						c.mu.Unlock()
					}
				}()
			}
		}
	})
	return e.cap, e.err
}

// Stats reports cache hits and misses (misses equal profiling runs).
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Evictions reports how many entries the size bound has pushed out.
func (c *Cache) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Purge drops every cached capture but keeps the hit/miss/eviction
// statistics — the memory-release half of Clear.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[Key]*cacheEntry)
	c.order = nil
}

// Clear drops every cached capture and resets the statistics.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[Key]*cacheEntry)
	c.order = nil
	c.hits, c.misses, c.evictions = 0, 0, 0
}
