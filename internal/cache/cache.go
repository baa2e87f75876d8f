// Package cache implements the shared last-level cache model: set
// associative, LRU, write-back/write-allocate, with unified handling of
// demand data lines and the ECC-related lines the paper's optimizations
// cache alongside them (Fig. 7): ECC lines (stored correction bits / GEC)
// and XOR cachelines (compacted parity-update accumulators).
//
// ECC-related lines are inserted with the same insertion and replacement
// policy as data lines, as §IV-C of the paper models.
//
// The cache sits on the simulator's hottest path (every warmup and demand
// access scans one set), so the layout is tuned hard: each way is a single
// uint64 packing the line address, kind, dirty and valid bits, and each
// set keeps its ways physically ordered most-recently-used first. LRU
// needs no timestamps — a hit rotates its way to the front, an insert
// lands at the front, and the victim is simply the last way. Valid ways
// always form a prefix (lines are never invalidated), so scans stop at
// the first zero key and a whole 16-way set spans two cache lines.
package cache

import "fmt"

// Kind classifies a cached line.
type Kind int

// Line kinds.
const (
	Data Kind = iota
	ECC       // a line of stored ECC correction bits (or GEC/T2EC)
	XOR       // an XOR cacheline accumulating parity updates (Eq. 1)
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case ECC:
		return "ecc"
	case XOR:
		return "xor"
	}
	return "?"
}

// Evicted describes a line pushed out by an allocation.
type Evicted struct {
	Addr  uint64
	Kind  Kind
	Dirty bool
}

// Stats counts cache events per line kind.
type Stats struct {
	Hits      [numKinds]uint64
	Misses    [numKinds]uint64
	Evictions [numKinds]uint64
}

// MissRate returns the miss rate for a kind.
func (s *Stats) MissRate(k Kind) float64 {
	total := s.Hits[k] + s.Misses[k]
	if total == 0 {
		return 0
	}
	return float64(s.Misses[k]) / float64(total)
}

// A way's key packs the line address (bits 3+), the kind+1 (bits 1-2, so
// key==0 means invalid) and the dirty flag (bit 0).
const dirtyBit = 1

// packKey builds the clean-line key for (lineAddr, kind).
func packKey(la uint64, kind Kind) uint64 {
	return la<<3 | uint64(kind+1)<<1
}

// unpack recovers the eviction record from a valid key.
func unpack(key uint64, lineBytes int) Evicted {
	return Evicted{
		Addr:  (key >> 3) * uint64(lineBytes),
		Kind:  Kind((key>>1)&3) - 1,
		Dirty: key&dirtyBit != 0,
	}
}

// Cache is a set-associative LRU cache indexed by byte address.
type Cache struct {
	keys      []uint64 // nsets × ways, flat; each set MRU-first
	ways      int
	lineBytes int
	lineShift uint
	setMask   uint64
	stats     Stats
}

// New builds a cache. sizeBytes/lineBytes/ways must yield a power-of-two
// set count and lineBytes must be a power of two.
func New(sizeBytes, ways, lineBytes int) *Cache {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		panic(fmt.Sprintf("cache: line size %d not a power of two", lineBytes))
	}
	lines := sizeBytes / lineBytes
	nsets := lines / ways
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", nsets))
	}
	var shift uint
	for 1<<shift != lineBytes {
		shift++
	}
	return &Cache{
		keys:      make([]uint64, nsets*ways),
		ways:      ways,
		lineBytes: lineBytes,
		lineShift: shift,
		setMask:   uint64(nsets - 1),
	}
}

// LineBytes returns the cache line size.
func (c *Cache) LineBytes() int { return c.lineBytes }

// Geometry reports the construction parameters (size, ways, line bytes), so
// a pooling caller can decide whether this cache can be Reset and reused
// for a new configuration instead of reallocated.
func (c *Cache) Geometry() (sizeBytes, ways, lineBytes int) {
	return len(c.keys) * c.lineBytes, c.ways, c.lineBytes
}

// Reset invalidates every line and zeroes the counters, returning the
// cache to its exact post-New state without reallocating the (potentially
// megabyte-scale) key array.
func (c *Cache) Reset() {
	clear(c.keys)
	c.stats = Stats{}
}

// Snapshot is a compact copy of a cache's lines and counters. Valid ways
// form a prefix of each set, so it stores only each set's prefix, back to
// back, plus one fill count per set: a partly warmed cache snapshots in a
// fraction of its key array.
type Snapshot struct {
	keys  []uint64
	fill  []uint16
	ways  int
	stats Stats
}

// SaveTo copies the cache's lines and counters into s, reusing s's
// buffers. Ways beyond 65535 do not fit a fill count; such a cache panics.
func (c *Cache) SaveTo(s *Snapshot) {
	if c.ways > 1<<16-1 {
		panic(fmt.Sprintf("cache: %d ways do not fit a snapshot", c.ways))
	}
	nsets := len(c.keys) / c.ways
	if cap(s.fill) < nsets {
		s.fill = make([]uint16, nsets)
	}
	s.fill = s.fill[:nsets]
	total := 0
	for i := range s.fill {
		set := c.keys[i*c.ways : (i+1)*c.ways]
		n := 0
		for n < len(set) && set[n] != 0 {
			n++
		}
		s.fill[i] = uint16(n)
		total += n
	}
	// Size the key buffer exactly, so a reused snapshot grows at most once.
	if cap(s.keys) < total {
		s.keys = make([]uint64, total)
	}
	s.keys = s.keys[:total]
	dst := s.keys
	for i, n := range s.fill {
		base := i * c.ways
		dst = dst[copy(dst, c.keys[base:base+int(n)]):]
	}
	s.ways = c.ways
	s.stats = c.stats
}

// Restore overwrites the cache with the lines and counters s holds, the
// exact state the cache was in at SaveTo. s must come from a cache of the
// same geometry.
func (c *Cache) Restore(s *Snapshot) {
	if s.ways != c.ways || len(s.fill)*c.ways != len(c.keys) {
		panic(fmt.Sprintf("cache: snapshot of %d×%d ways restored into %d×%d", len(s.fill), s.ways, len(c.keys)/c.ways, c.ways))
	}
	src := s.keys
	for i, n := range s.fill {
		set := c.keys[i*c.ways : (i+1)*c.ways]
		copy(set, src[:n])
		clear(set[n:])
		src = src[n:]
	}
	c.stats = s.stats
}

// Stats returns the event counters.
func (c *Cache) Stats() *Stats { return &c.stats }

// set returns the ways of the set holding line address la, MRU first.
func (c *Cache) set(la uint64) []uint64 {
	base := int(la&c.setMask) * c.ways
	return c.keys[base : base+c.ways]
}

// insert places a new line at the set's MRU position. vi is the way being
// consumed: the first invalid way, or the LRU tail when the set is full.
// Everything above it slides down one position.
func (c *Cache) insert(set []uint64, want uint64, kind Kind, vi int) (victim Evicted, evicted bool) {
	c.stats.Misses[kind]++
	if old := set[vi]; old != 0 {
		victim = unpack(old, c.lineBytes)
		evicted = true
		c.stats.Evictions[victim.Kind]++
	}
	copy(set[1:vi+1], set[:vi])
	set[0] = want
	return victim, evicted
}

// Access looks up addr; on a miss it allocates, possibly evicting. The
// victim (valid only when evicted is true) lets the caller issue the
// writeback and any ECC-maintenance traffic; its Dirty field says whether
// a writeback is due.
//
// Recency order is positional: the hit path rotates the touched way to
// the front of the set. This is observably identical to timestamp LRU —
// the victim choice depends only on the relative recency of the ways, and
// which of several invalid ways a fill consumes is never visible.
func (c *Cache) Access(addr uint64, kind Kind, write bool) (hit bool, victim Evicted, evicted bool) {
	la := addr >> c.lineShift
	set := c.set(la)
	want := packKey(la, kind)
	vi := c.ways - 1
	for i, k := range set {
		if k&^uint64(dirtyBit) == want {
			if write {
				k |= dirtyBit
			}
			copy(set[1:i+1], set[:i])
			set[0] = k
			c.stats.Hits[kind]++
			return true, Evicted{}, false
		}
		if k == 0 {
			vi = i
			break
		}
	}
	if write {
		want |= dirtyBit
	}
	victim, evicted = c.insert(set, want, kind, vi)
	return false, victim, evicted
}

// Allocate fills addr like a missing Access would, but leaves an already
// present line completely untouched — no LRU promotion, no hit count —
// exactly as if the caller had Probed first and skipped the Access. This
// is the prefetcher's probe-then-fill pair fused into one set scan.
func (c *Cache) Allocate(addr uint64, kind Kind) (present bool, victim Evicted, evicted bool) {
	la := addr >> c.lineShift
	set := c.set(la)
	want := packKey(la, kind)
	vi := c.ways - 1
	for i, k := range set {
		if k&^uint64(dirtyBit) == want {
			return true, Evicted{}, false
		}
		if k == 0 {
			vi = i
			break
		}
	}
	victim, evicted = c.insert(set, want, kind, vi)
	return false, victim, evicted
}

// Probe reports whether addr is cached with the given kind, without
// touching LRU state or allocating.
func (c *Cache) Probe(addr uint64, kind Kind) bool {
	la := addr >> c.lineShift
	want := packKey(la, kind)
	for _, k := range c.set(la) {
		if k&^uint64(dirtyBit) == want {
			return true
		}
		if k == 0 {
			return false
		}
	}
	return false
}

// FlushDirty evicts every dirty line, invoking fn for each; used at the end
// of a simulation to drain pending writebacks.
func (c *Cache) FlushDirty(fn func(Evicted)) {
	for i, k := range c.keys {
		if k&dirtyBit != 0 {
			fn(unpack(k, c.lineBytes))
			c.keys[i] = k &^ dirtyBit
		}
	}
}

// Footprint returns the bytes the snapshot's buffers hold.
func (s *Snapshot) Footprint() int { return 8*cap(s.keys) + 2*cap(s.fill) }
