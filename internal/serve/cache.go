package serve

import (
	"container/list"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"epiphany/internal/sweep"
)

// EngineVersion names the generation of the simulation engine's frozen
// golden surface. It participates in cache identity - the in-memory key
// is namespaced by it and every persisted entry records the version it
// was simulated under - so a corpus written by an older engine degrades
// to misses (and is re-simulated and overwritten) instead of being
// served as current. Bump it whenever a change shifts any golden:
// schedule, timing model, or energy metering.
//
//	"" (absent): through the sharded-engine release, before the
//	    schemeDouble rotation handshake fix
//	"2": rotation forward-done handshake + engine booking floor
const EngineVersion = "2"

// entry is one cached simulation: the cell spec it answers, the power
// model it was metered under, the deterministic result, the host wall
// time the original simulation cost (what a cache hit saves; it feeds
// the /v1/stats simulated-vs-served accounting, never a response body -
// response bytes must be identical between the miss that filled the
// entry and every hit that serves it), and the engine version that
// produced it.
type entry struct {
	Cell   sweep.Cell       `json:"cell"`
	Power  string           `json:"power,omitempty"`
	Result sweep.CellResult `json:"result"`
	SimNS  int64            `json:"sim_ns"`
	Engine string           `json:"engine"`
}

// resultCache is the content-addressed result store: cell fingerprint
// (sweep.Plan.CellFingerprint) -> entry. Because every simulation is a
// pure function of its canonical spec, the cache is exact - a hit is
// byte-for-byte the result the simulation would produce - so the only
// policy it needs is capacity: an LRU bound on the in-memory entries,
// plus optional write-through persistence to a directory (one JSON
// file per fingerprint) so a restarted daemon keeps its corpus warm.
// Only successful cells are stored; failures stay uncached so a
// transient error is retried rather than replayed.
type resultCache struct {
	mem *lru[entry]
	dir string // "" = memory only

	// verMiss counts persisted entries rejected because they were
	// simulated under a different EngineVersion (for /v1/stats).
	verMiss atomic.Int64
}

func newResultCache(maxEntries int, dir string) (*resultCache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return &resultCache{mem: newLRU[entry](maxEntries), dir: dir}, nil
}

// key namespaces a fingerprint with the engine version for the
// in-memory map, making the version part of the cache identity proper
// (a future in-process engine upgrade would orphan, not serve, the old
// generation's entries).
func (c *resultCache) key(id string) string { return EngineVersion + ":" + id }

// get returns the entry stored under id. A memory miss falls through
// to the persistence directory; a disk entry found there is promoted
// into the in-memory LRU - unless it was simulated under a different
// EngineVersion, in which case it is a counted miss: the cell is
// re-simulated on the current engine and put overwrites the stale
// file. The returned entry is a copy - callers derive scaling columns
// on their copies without disturbing the store.
func (c *resultCache) get(id string) (entry, bool) {
	if e, ok := c.mem.get(c.key(id)); ok {
		return e, true
	}
	if c.dir == "" {
		return entry{}, false
	}
	b, err := os.ReadFile(c.file(id))
	if err != nil {
		return entry{}, false
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		// A torn or foreign file is a miss, not a failure: the
		// simulation re-derives the truth and put rewrites the file.
		return entry{}, false
	}
	if e.Engine != EngineVersion {
		// Count the stale generation once and drop the file: later
		// lookups are plain misses, and the re-simulation's put writes
		// the current-version entry in its place.
		c.verMiss.Add(1)
		os.Remove(c.file(id))
		return entry{}, false
	}
	c.mem.put(c.key(id), e)
	return e, true
}

// put stores a successful simulation under its fingerprint, stamping
// it with the running engine's version, evicting least-recently-used
// entries past the memory bound and writing through to the persistence
// directory when one is configured.
func (c *resultCache) put(id string, e entry) {
	e.Engine = EngineVersion
	c.mem.put(c.key(id), e)
	if c.dir != "" {
		c.persist(id, e)
	}
}

// persist writes the entry's JSON under its fingerprint, via a
// same-directory temp file + rename so a crash mid-write leaves either
// the old file or the new one, never a torn read for a concurrent get.
// Persistence is best-effort: a full disk degrades the daemon to a
// memory-only cache instead of failing requests.
func (c *resultCache) persist(id string, e entry) {
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.dir, "."+id+".tmp*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), c.file(id)); err != nil {
		os.Remove(tmp.Name())
	}
}

// file maps a fingerprint to its persistence path. Fingerprints are
// lowercase hex, but guard against path metacharacters anyway: a
// malformed id becomes a harmless flat name.
func (c *resultCache) file(id string) string {
	id = strings.Map(func(r rune) rune {
		switch {
		case r >= '0' && r <= '9', r >= 'a' && r <= 'f':
			return r
		}
		return '_'
	}, id)
	return filepath.Join(c.dir, id+".json")
}

// len reports the in-memory entry count (for /v1/stats).
func (c *resultCache) len() int { return c.mem.len() }

// versionMisses reports how many persisted entries were rejected for
// carrying a different EngineVersion (for /v1/stats).
func (c *resultCache) versionMisses() int64 { return c.verMiss.Load() }

// lru is a mutex-guarded map bounded to its max most recently used
// entries: the result cache's in-memory tier, and on its own the plan
// store that lets GET /v1/sweeps/{id} re-render a previously submitted
// sweep (cheaply: its cells are in the result cache).
type lru[V any] struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used; values are *lruNode[V]
	items map[string]*list.Element
}

// lruNode is what order's elements hold.
type lruNode[V any] struct {
	key string
	val V
}

func newLRU[V any](maxEntries int) *lru[V] {
	return &lru[V]{max: maxEntries, order: list.New(), items: make(map[string]*list.Element)}
}

// get returns the value stored under key, marking it most recently used.
func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruNode[V]).val, true
}

// put inserts or refreshes key's value and evicts least-recently-used
// entries past the bound.
func (c *lru[V]) put(key string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruNode[V]).val = v
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruNode[V]{key: key, val: v})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruNode[V]).key)
	}
}

// len reports the entry count.
func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
