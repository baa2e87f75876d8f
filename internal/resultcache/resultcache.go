// Package resultcache is a content-addressed store for experiment results.
// Because every experiment in this repo is deterministic in its config
// (seed included, worker count excluded — see internal/sim/report), the
// canonical SHA-256 of the config fully identifies the result bytes: the
// cache never needs invalidation, a hit is byte-identical to the original
// run by construction, and concurrent identical requests can share one
// execution (singleflight).
//
// Layout: singleflight over an in-memory map in front of an optional
// on-disk blob.FS (internal/blob), so a daemon restart keeps its corpus.
// The disk tier owns no file handling of its own: blob.FS writes each entry
// atomically as a checksummed frame, sweeps crash orphans at open, and
// reports a truncated or bit-flipped entry as blob.ErrCorrupt after
// deleting it — the result is recomputed, never served corrupted. The cache
// adds an LRU byte-budget index over the disk tier: when a budget is set,
// least-recently-used entries are evicted to stay under it.
//
// Behind the local tiers an optional shared tier (internal/blob) turns the
// cache into the fleet-wide store of a multi-node deployment: reads fall
// through memory → local disk → shared blob, a shared hit is pulled into
// the local tiers (read-through fill), and a freshly computed result is
// published to the shared tier asynchronously (write-behind, so the compute
// path never blocks on a network mount). The shared tier is the same kind
// of store as the disk tier — a corrupt frame is deleted and recomputed
// locally, never served and never left to poison other replicas — and
// singleflight still collapses concurrent identical requests on this
// replica whichever tier ends up serving them.
package resultcache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"eccparity/internal/blob"
)

// Key returns the canonical content address of a config value: the SHA-256
// hex of its encoding/json serialization. Struct fields marshal in
// declaration order and map keys sort, so the encoding — and therefore the
// address — is deterministic. Callers must hash a fully normalized config
// (defaults filled in) so that equivalent requests collapse to one key.
func Key(config any) (string, error) {
	b, err := json.Marshal(config)
	if err != nil {
		return "", fmt.Errorf("resultcache: marshal config: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Stats is a snapshot of the cache's counters.
type Stats struct {
	// Hits: served from memory or disk without computing.
	Hits uint64
	// Misses: the value had to be computed.
	Misses uint64
	// Coalesced: callers that waited on another caller's in-flight
	// computation of the same key instead of recomputing (singleflight).
	Coalesced uint64
	// Evicted: disk entries removed to stay under the byte budget.
	Evicted uint64
	// Corrupt: disk entries that failed their checksum frame and were
	// deleted (each one recomputes as a miss).
	Corrupt uint64
	// SharedHits: lookups served by the shared blob tier (each one also
	// counts in Hits and fills the local tiers).
	SharedHits uint64
	// SharedPublished: results successfully published to the shared tier.
	SharedPublished uint64
	// SharedCorrupt: shared blobs that failed their checksum frame; the
	// backend deleted them and the result was recomputed locally.
	SharedCorrupt uint64
	// SharedErrors: shared-tier reads or publishes that failed for
	// transport/IO reasons (the tier was treated as unavailable).
	SharedErrors uint64
	// SharedRepaired: shards of the erasure-coded shared tier rewritten
	// with reconstructed bytes after reads served through missing or
	// corrupt shards (0 unless the backend reports repair stats — see
	// blob.RepairStatter and internal/blob/ec).
	SharedRepaired uint64
	// ShardErrors: per-shard failures inside the erasure-coded shared tier
	// that the stripe absorbed without the operation failing (0 unless the
	// backend reports repair stats).
	ShardErrors uint64
	// Entries currently held in memory.
	Entries int
	// DiskEntries / DiskBytes describe the on-disk layer (0 when disabled).
	DiskEntries int
	DiskBytes   int64
}

// flight is one in-progress computation other callers can wait on. val and
// err are written before done is closed, which orders them for waiters.
type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// diskEntry is one LRU index record; list front = most recently used.
type diskEntry struct {
	key  string
	size int64
}

// Cache is safe for concurrent use.
type Cache struct {
	disk     *blob.FS // nil = memory only
	maxBytes int64    // 0 = unbounded disk

	// shared is the optional fleet-wide tier behind the local ones; nil
	// keeps the cache purely local. pubWG tracks in-flight write-behind
	// publishes; pubSem bounds how many run at once so a slow mount cannot
	// pile up goroutines.
	shared blob.Backend
	pubWG  sync.WaitGroup
	pubSem chan struct{}

	mu       sync.Mutex
	closed   bool // Close was called: no new publishes
	mem      map[string][]byte
	inflight map[string]*flight

	// Disk LRU index, guarded by mu: index maps key → element whose Value
	// is *diskEntry; bytes is the framed size sum of everything indexed.
	lru   *list.List
	index map[string]*list.Element
	bytes int64

	hits, misses, coalesced, evicted, corrupt          atomic.Uint64
	sharedHits, sharedPub, sharedCorrupt, sharedErrors atomic.Uint64
}

// Option configures optional cache behavior at construction.
type Option func(*Cache)

// WithShared attaches a shared blob backend as the tier behind the local
// memory and disk layers: reads fall through to it, shared hits fill the
// local tiers, and computed results are published to it write-behind. A nil
// backend is ignored (single-node behavior unchanged).
func WithShared(b blob.Backend) Option {
	return func(c *Cache) {
		if b != nil {
			c.shared = b
		}
	}
}

// New creates a cache. A nonempty dir enables the on-disk layer (created if
// missing); dir == "" keeps results in memory only. maxDiskBytes bounds the
// on-disk layer: when a write would push the directory past the budget,
// least-recently-used entries are evicted first (0 = unbounded). The
// existing corpus is indexed at startup from the walk that opens the
// store, oldest-first by mtime, and trimmed to the budget immediately.
func New(dir string, maxDiskBytes int64, opts ...Option) (*Cache, error) {
	c := &Cache{
		maxBytes: maxDiskBytes,
		mem:      map[string][]byte{}, inflight: map[string]*flight{},
		lru: list.New(), index: map[string]*list.Element{},
		pubSem: make(chan struct{}, 4),
	}
	for _, o := range opts {
		o(c)
	}
	if dir != "" {
		disk, entries, err := blob.OpenFS(dir)
		if err != nil {
			return nil, fmt.Errorf("resultcache: %w", err)
		}
		c.disk = disk
		// Oldest first: each PushFront leaves the newest at the front, so a
		// restarted daemon evicts its stalest results first.
		sort.Slice(entries, func(i, j int) bool { return entries[i].ModTime.Before(entries[j].ModTime) })
		for _, e := range entries {
			c.index[e.Key] = c.lru.PushFront(&diskEntry{key: e.Key, size: e.Size})
			c.bytes += e.Size
		}
		c.mu.Lock()
		c.evictLocked()
		c.mu.Unlock()
	}
	return c, nil
}

// Get returns the cached bytes for key, consulting memory, disk, then the
// shared tier, and counts a hit when found. Missing keys are not counted as
// misses (only a computation is): use GetOrCompute for the read-through
// path.
func (c *Cache) Get(key string) ([]byte, bool) {
	v, ok := c.Peek(key)
	if ok {
		c.hits.Add(1)
	}
	return v, ok
}

// Peek is Get without touching the hit counter — for serving /v1/results
// fetches, which would otherwise inflate the hit ratio.
func (c *Cache) Peek(key string) ([]byte, bool) {
	v, ok := c.lookup(key)
	if !ok {
		return nil, false
	}
	return clone(v), true
}

// lookup is the one read-through walk of the tiers: memory, then local
// disk, then shared. A lower-tier hit fills memory (readShared also fills
// disk). The returned slice is the cache's own copy; callers clone it.
func (c *Cache) lookup(key string) ([]byte, bool) {
	c.mu.Lock()
	v, ok := c.mem[key]
	c.mu.Unlock()
	if ok {
		return v, true
	}
	if v, ok = c.readDisk(key); !ok {
		v, ok = c.readShared(key)
	}
	if ok {
		c.mu.Lock()
		c.mem[key] = v
		c.mu.Unlock()
	}
	return v, ok
}

// GetOrCompute returns the bytes for key, running compute exactly once per
// key no matter how many callers arrive concurrently: the first caller
// computes, the rest wait and share its result (or its error). hit reports
// whether this caller's bytes were served without running compute itself.
//
// ctx cancels this caller's wait and is the context compute runs under; a
// canceled computation settles with its error, caches nothing (memory or
// disk), and leaves the key open for the next caller to recompute.
func (c *Cache) GetOrCompute(ctx context.Context, key string, compute func(ctx context.Context) ([]byte, error)) (val []byte, hit bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	if v, ok := c.mem[key]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return clone(v), true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			// This caller gives up; the flight keeps running for the others.
			return nil, false, ctx.Err()
		}
		if f.err != nil {
			return nil, false, f.err
		}
		c.coalesced.Add(1)
		return clone(f.val), true, nil
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	// The lower tiers are read outside the lock: a restart's corpus and a
	// result another replica published are hits too.
	if v, ok := c.lookup(key); ok {
		c.settle(key, f, v, nil)
		c.hits.Add(1)
		return clone(v), true, nil
	}

	c.misses.Add(1)
	v, cerr := compute(ctx)
	if cerr == nil {
		v = clone(v)
		c.persist(key, v)
		c.publishShared(key, v)
	}
	c.settle(key, f, v, cerr)
	if cerr != nil {
		return nil, false, cerr
	}
	return clone(v), false, nil
}

// settle publishes a flight's outcome: a successful value lands in memory
// (v becomes the cache's own copy), waiters are released, and the key is
// open for retry on error.
func (c *Cache) settle(key string, f *flight, v []byte, err error) {
	f.val, f.err = v, err
	c.mu.Lock()
	if err == nil {
		c.mem[key] = v
	}
	delete(c.inflight, key)
	c.mu.Unlock()
	close(f.done)
}

// readDisk reads one entry from the disk tier. A valid read touches the
// entry in the LRU. blob.ErrCorrupt means the store found a damaged frame
// and deleted it: the entry leaves the index and is a miss, so the caller
// recomputes. Every other error — a missing entry, a key that is not a
// content address, an IO failure — is a plain miss.
func (c *Cache) readDisk(key string) ([]byte, bool) {
	if c.disk == nil {
		return nil, false
	}
	b, err := c.disk.Get(context.Background(), key)
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case err == nil:
		if el, ok := c.index[key]; ok {
			c.lru.MoveToFront(el)
		}
		return b, true
	case errors.Is(err, blob.ErrCorrupt):
		c.corrupt.Add(1)
		c.dropIndexLocked(key)
	}
	return nil, false
}

// readShared reads one entry from the shared blob tier and, on a hit,
// fills the local disk tier so the next lookup stays off the shared mount.
// A corrupt blob has already been deleted by the backend (see
// blob.ErrCorrupt) and is a miss: the caller recomputes locally, and the
// write-behind publish of that recompute repairs the shared tier with good
// bytes. Transport errors degrade to a miss too — a flaky mount slows the
// fleet down to per-replica recomputation, it never breaks it.
func (c *Cache) readShared(key string) ([]byte, bool) {
	if c.shared == nil || !blob.ValidKey(key) {
		return nil, false
	}
	b, err := c.shared.Get(context.Background(), key)
	switch {
	case err == nil:
		c.sharedHits.Add(1)
		c.persist(key, b)
		return b, true
	case errors.Is(err, blob.ErrCorrupt):
		c.sharedCorrupt.Add(1)
	case errors.Is(err, blob.ErrNotFound):
		// plain miss
	default:
		c.sharedErrors.Add(1)
	}
	return nil, false
}

// publishShared queues a write-behind publish of a freshly computed value
// to the shared tier: the compute path returns immediately, and a bounded
// number of publisher goroutines push in the background. Close (or
// FlushShared) waits for the backlog, so a clean shutdown leaves everything
// this replica computed visible to the fleet. Publish failures are counted
// and dropped — the local tiers still serve the value, and any replica that
// misses the shared tier recomputes deterministically. v must not change.
func (c *Cache) publishShared(key string, v []byte) {
	if c.shared == nil || !blob.ValidKey(key) {
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.pubWG.Add(1)
	c.mu.Unlock()
	go func() {
		defer c.pubWG.Done()
		c.pubSem <- struct{}{}
		defer func() { <-c.pubSem }()
		if err := c.shared.Put(context.Background(), key, v); err != nil {
			c.sharedErrors.Add(1)
			return
		}
		c.sharedPub.Add(1)
	}()
}

// FlushShared blocks until every queued write-behind publish has settled,
// leaving the cache open for more.
func (c *Cache) FlushShared() {
	c.pubWG.Wait()
}

// Close stops new write-behind publishes and waits for the in-flight ones,
// so no publish goroutine outlives it. Reads keep working on every tier;
// results computed after Close stay local. The owner calls it when done —
// the daemon on drain, tests in t.Cleanup.
func (c *Cache) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.pubWG.Wait()
}

// persist writes the value to the disk tier (blob.FS writes are atomic, so
// a crashed write never surfaces as a truncated result), indexes its framed
// size, then evicts LRU entries past the byte budget. Best-effort: the
// in-memory layer still serves the value if the disk write fails.
func (c *Cache) persist(key string, v []byte) {
	if c.disk == nil || c.disk.Put(context.Background(), key, v) != nil {
		return
	}
	size := int64(len(v) + blob.FrameOverhead)
	c.mu.Lock()
	c.dropIndexLocked(key) // overwrite: replace any stale size
	c.index[key] = c.lru.PushFront(&diskEntry{key: key, size: size})
	c.bytes += size
	c.evictLocked()
	c.mu.Unlock()
}

// evictLocked removes least-recently-used disk entries until the layer fits
// the byte budget (mu held). Evicted results survive in memory if resident,
// and can always be recomputed — determinism makes eviction safe.
func (c *Cache) evictLocked() {
	if c.maxBytes <= 0 {
		return
	}
	for c.bytes > c.maxBytes {
		el := c.lru.Back()
		if el == nil {
			return
		}
		e := el.Value.(*diskEntry)
		// The entry leaves the index even if the delete fails, so eviction
		// always makes progress; the next open re-indexes a survivor.
		_ = c.disk.Delete(context.Background(), e.key)
		c.dropIndexLocked(e.key)
		c.evicted.Add(1)
	}
}

// dropIndexLocked removes key from the LRU index if present (mu held).
func (c *Cache) dropIndexLocked(key string) {
	if el, ok := c.index[key]; ok {
		c.bytes -= el.Value.(*diskEntry).size
		c.lru.Remove(el)
		delete(c.index, key)
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries := len(c.mem)
	diskEntries := c.lru.Len()
	diskBytes := c.bytes
	c.mu.Unlock()
	var repair blob.RepairStats
	if rs, ok := c.shared.(blob.RepairStatter); ok {
		repair = rs.RepairStats()
	}
	return Stats{
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		Coalesced:       c.coalesced.Load(),
		Evicted:         c.evicted.Load(),
		Corrupt:         c.corrupt.Load(),
		SharedHits:      c.sharedHits.Load(),
		SharedPublished: c.sharedPub.Load(),
		SharedCorrupt:   c.sharedCorrupt.Load(),
		SharedErrors:    c.sharedErrors.Load(),
		SharedRepaired:  repair.Repaired,
		ShardErrors:     repair.ShardErrors,
		Entries:         entries,
		DiskEntries:     diskEntries,
		DiskBytes:       diskBytes,
	}
}

func clone(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
