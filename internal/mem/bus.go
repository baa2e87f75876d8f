package mem

// busAllocator hands out data-bus time slots of tBurst cycles each. Unlike
// a single "free after X" frontier, it backfills: a request whose bank was
// busy far into the future takes a slot at its own ready time without
// blocking earlier idle slots for everyone else. This models an
// out-of-order command scheduler's data bus exactly at burst granularity.
//
// Implementation: slot index → next-free-slot forwarding pointers with
// path compression (the disjoint-set "allocate successive integers" trick),
// so alloc is amortized near-O(1). The pointers live in a power-of-two ring
// of int64 indexed by slot&mask (0 = free) rather than a hash map: the
// allocator is the controller's hottest data structure and the ring drops
// both the hashing cost and the per-entry allocations. The ring covers
// slots [base, base+len); retire advances base once the caller guarantees
// no request can arrive early enough to claim the slots below it, and the
// ring doubles if an in-flight window ever outgrows it.
type busAllocator struct {
	slotCycles float64
	next       []int64 // next[s&mask]: first maybe-free slot > s, 0 = free
	mask       int64
	base       int64 // slots below base are retired (always allocated)
}

// initialBusSlots must be a power of two; 1024 slots cover an 8-cycle-burst
// window of 8192 cycles, beyond any in-flight spread the engine produces.
const initialBusSlots = 1024

func newBusAllocator(tBurst int) *busAllocator {
	return &busAllocator{
		slotCycles: float64(tBurst),
		next:       make([]int64, initialBusSlots),
		mask:       initialBusSlots - 1,
	}
}

// reset empties the ring for a new run. A grown ring keeps its capacity:
// slot allocation is capacity-independent (the ring only bounds how many
// in-flight slots can be tracked at once, never which slot a request
// gets), so reuse cannot change timing.
func (b *busAllocator) reset(tBurst int) {
	b.slotCycles = float64(tBurst)
	clear(b.next)
	b.base = 0
}

// alloc reserves the first free slot starting at or after `earliest` and
// returns its start time in cycles.
func (b *busAllocator) alloc(earliest float64) float64 {
	s := int64(earliest / b.slotCycles)
	if float64(s)*b.slotCycles < earliest {
		s++
	}
	if s < b.base {
		s = b.base
	}
	s = b.find(s)
	b.next[s&b.mask] = s + 1
	return float64(s) * b.slotCycles
}

// find follows forwarding pointers to the first free slot ≥ s, compressing
// the path as it goes.
func (b *busAllocator) find(s int64) int64 {
	root := s
	for {
		if root-b.base >= int64(len(b.next)) {
			b.grow(root)
		}
		n := b.next[root&b.mask]
		if n == 0 {
			break
		}
		root = n
	}
	// Path compression.
	for s != root {
		i := s & b.mask
		n := b.next[i]
		b.next[i] = root
		s = n
	}
	return root
}

// grow doubles the ring until slot s fits in [base, base+len).
func (b *busAllocator) grow(s int64) {
	size := int64(len(b.next))
	for s-b.base >= size {
		size *= 2
	}
	bigger := make([]int64, size)
	for i, v := range b.next {
		if v != 0 {
			// Recover the absolute slot this ring index held. Exactly one
			// slot in [base, base+oldLen) maps to index i.
			slot := b.base&^b.mask | int64(i)
			if slot < b.base {
				slot += b.mask + 1
			}
			bigger[slot&(size-1)] = v
		}
	}
	b.next = bigger
	b.mask = size - 1
}

// retire marks every slot below `floor` as permanently allocated and frees
// its bookkeeping. The caller guarantees no future alloc will ask for an
// earliest time inside a retired slot.
func (b *busAllocator) retire(floor int64) {
	if floor <= b.base {
		return
	}
	if floor-b.base >= int64(len(b.next)) {
		clear(b.next)
		b.base = floor
		return
	}
	for s := b.base; s < floor; s++ {
		b.next[s&b.mask] = 0
	}
	b.base = floor
}

// copyFrom makes b an exact copy of src, ring capacity included, reusing
// b's ring when it is large enough.
func (b *busAllocator) copyFrom(src *busAllocator) {
	next := append(b.next[:0], src.next...)
	*b = *src
	b.next = next
}
