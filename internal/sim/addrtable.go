package sim

// addrTable maps in-flight prefetch line addresses to fill-completion
// times. It replaces a map[uint64]float64 on the hot path with an
// open-addressed, linear-probed table: keys are line-aligned byte
// addresses (multiples of the cache line, never 0), so 0 can mark an
// empty slot, and deletion uses backward-shift compaction instead of
// tombstones. Steady-state get/put/take never allocate; the table only
// grows (load factor ≤ ½) as the working footprint does.
type addrTable struct {
	keys  []uint64
	vals  []float64
	live  int
	mask  uint64
	shift uint
}

const addrTableInitial = 1024 // slots; must be a power of two

func newAddrTable() *addrTable {
	t := &addrTable{}
	t.init(addrTableInitial)
	return t
}

// reset empties the table for a new run, keeping any grown capacity.
// Capacity never changes a result: it decides only when pruneBelow leaves
// a stale entry behind (backward shifts can slide one behind its cursor)
// and when the next prune fires. A stale entry holds a fill that landed at
// or before the slowest core's clock, so a take of it still ends in a plain
// hit, exactly as if it had been pruned; and pruning only ever drops such
// entries.
func (t *addrTable) reset() {
	clear(t.keys)
	clear(t.vals)
	t.live = 0
}

func (t *addrTable) init(size int) {
	t.keys = make([]uint64, size)
	t.vals = make([]float64, size)
	t.mask = uint64(size - 1)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
}

// home is the preferred slot for key k (Fibonacci hashing: line addresses
// share low zero bits, so the multiply spreads the high entropy down).
func (t *addrTable) home(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> t.shift
}

func (t *addrTable) len() int { return t.live }

// put inserts or updates k → v.
func (t *addrTable) put(k uint64, v float64) {
	i := t.home(k)
	for {
		switch t.keys[i] {
		case k:
			t.vals[i] = v
			return
		case 0:
			t.keys[i] = k
			t.vals[i] = v
			t.live++
			if 2*t.live >= len(t.keys) {
				t.grow()
			}
			return
		}
		i = (i + 1) & t.mask
	}
}

// take returns k's value and deletes it, if present.
func (t *addrTable) take(k uint64) (float64, bool) {
	i := t.home(k)
	for {
		switch t.keys[i] {
		case k:
			v := t.vals[i]
			t.deleteSlot(i)
			return v, true
		case 0:
			return 0, false
		}
		i = (i + 1) & t.mask
	}
}

// deleteSlot empties slot i and backward-shifts the rest of its probe
// cluster so every remaining key stays reachable from its home slot
// (Knuth's linear-probing deletion; no tombstones to compact later).
func (t *addrTable) deleteSlot(i uint64) {
	t.live--
	for {
		t.keys[i] = 0
		j := i
		for {
			j = (j + 1) & t.mask
			if t.keys[j] == 0 {
				return
			}
			h := t.home(t.keys[j])
			// Entry j may move into the hole at i unless its home lies
			// cyclically inside (i, j] — then probing still reaches it.
			if i <= j {
				if h <= i || h > j {
					break
				}
			} else if h <= i && h > j {
				break
			}
		}
		t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
		i = j
	}
}

// pruneBelow deletes every entry whose value is ≤ cutoff. Backward shifts
// can slide a wrapped cluster's entries behind the cursor, leaving an
// occasional stale entry for the next prune — the caller uses this purely
// to bound the table, so that is fine.
func (t *addrTable) pruneBelow(cutoff float64) {
	for i := uint64(0); i < uint64(len(t.keys)); {
		if t.keys[i] != 0 && t.vals[i] <= cutoff {
			t.deleteSlot(i) // may pull a new candidate into slot i
		} else {
			i++
		}
	}
}

// grow doubles the table.
func (t *addrTable) grow() {
	oldK, oldV := t.keys, t.vals
	t.init(2 * len(oldK))
	t.live = 0
	for i, k := range oldK {
		if k != 0 {
			t.put(k, oldV[i])
		}
	}
}

// copyFrom makes t an exact copy of src at src's capacity, reusing t's
// buffers when they are large enough.
func (t *addrTable) copyFrom(src *addrTable) {
	keys := append(t.keys[:0], src.keys...)
	vals := append(t.vals[:0], src.vals...)
	*t = *src
	t.keys, t.vals = keys, vals
}
