// Package cpu models the processor cores of Table I: two-issue out-of-order
// cores with a 64-entry ROB and 32/32 LSQ. The model is a bounded-MLP
// abstraction: a core executes compute instructions at its issue width,
// overlaps up to MaxOutstanding memory-level-parallel misses, and stalls
// when the miss window (the ROB's capacity to slide past outstanding loads)
// is full. Stores retire into the write path without stalling the core.
//
// This is the coupling the paper's evaluation actually exercises: memory
// latency and bandwidth throttle instruction throughput; everything else
// about the pipeline is irrelevant to the memory-system comparison.
package cpu

// Params mirrors Table I.
type Params struct {
	IssueWidth     int     // issue slots per cycle
	BaseCPI        float64 // dependency-limited cycles per instruction
	MaxOutstanding int     // concurrent misses a core can tolerate (bounded MLP)
	LLCHitCycles   int     // hit latency charged when the miss window is full
}

// DefaultParams returns the paper's core configuration: 2-wide, ROB 64,
// LSQ 32/32. A 64-entry ROB with a 32-entry load queue sustains roughly
// eight overlapped misses. Although the machine can issue two instructions
// per cycle, dependent chains hold SPEC-class code near one instruction
// per cycle outside of memory stalls, which BaseCPI captures.
func DefaultParams() Params {
	return Params{IssueWidth: 2, BaseCPI: 1.0, MaxOutstanding: 8, LLCHitCycles: 10}
}

// Core is one core's timing state. The zero value is not usable; use New.
type Core struct {
	p            Params
	time         float64
	instructions uint64
	// out is a ring buffer of in-flight miss completion times, sorted
	// oldest-first starting at head. A fixed ring (rather than a slice
	// re-sliced from the front) keeps the per-access window operations
	// free of copying and reallocation.
	out  []float64
	head int
	n    int
	// StallCycles accumulates time spent blocked on the miss window.
	StallCycles float64
}

// New builds a core.
func New(p Params) *Core {
	c := &Core{}
	c.Reset(p)
	return c
}

// Reset returns the core to the exact post-New(p) state, reusing the miss
// ring when its capacity already matches (the ring only ever grows under
// pathological unpaced use, so a reset to the initial capacity keeps a
// reused core's trajectory identical to a fresh one).
func (c *Core) Reset(p Params) {
	capacity := p.MaxOutstanding
	if capacity < 1 {
		capacity = 1
	}
	if len(c.out) != capacity {
		c.out = make([]float64, capacity)
	}
	c.p = p
	c.time = 0
	c.instructions = 0
	c.head = 0
	c.n = 0
	c.StallCycles = 0
}

// Time returns the core-local clock in cycles.
func (c *Core) Time() float64 { return c.time }

// Instructions returns the retired instruction count.
func (c *Core) Instructions() uint64 { return c.instructions }

// AdvanceCompute retires n compute instructions at the dependency-limited
// rate (never faster than the issue width allows).
func (c *Core) AdvanceCompute(n int) {
	cpi := c.p.BaseCPI
	if min := 1 / float64(c.p.IssueWidth); cpi < min {
		cpi = min
	}
	c.time += float64(n) * cpi
	c.instructions += uint64(n)
}

// BeginMiss reserves a miss slot, stalling the core until the oldest
// outstanding miss completes if the window is full. It returns the cycle at
// which the new miss may issue. Call CompleteMiss with the controller's
// completion time afterwards.
func (c *Core) BeginMiss() float64 {
	c.drain()
	if c.n >= c.p.MaxOutstanding {
		oldest := c.out[c.head]
		if oldest > c.time {
			c.StallCycles += oldest - c.time
			c.time = oldest
		}
		c.pop()
	}
	return c.time
}

// CompleteMiss records the completion time of the miss issued at BeginMiss.
func (c *Core) CompleteMiss(done float64) {
	if c.n == len(c.out) {
		c.grow()
	}
	// Keep the ring sorted (completion times are near-monotonic; a simple
	// insertion keeps the oldest-first invariant exact).
	i := c.n
	c.n++
	for i > 0 && c.out[c.idx(i-1)] > done {
		c.out[c.idx(i)] = c.out[c.idx(i-1)]
		i--
	}
	c.out[c.idx(i)] = done
}

// Hit charges an LLC hit. Hits are normally overlapped; when the miss
// window is saturated the core is latency-bound and pays the hit latency.
func (c *Core) Hit() {
	c.drain()
	if c.n >= c.p.MaxOutstanding {
		c.time += float64(c.p.LLCHitCycles)
	}
}

// idx maps a logical window position (0 = oldest) to a ring slot.
func (c *Core) idx(i int) int {
	i += c.head
	if i >= len(c.out) {
		i -= len(c.out)
	}
	return i
}

// pop discards the oldest in-flight miss.
func (c *Core) pop() {
	c.head++
	if c.head == len(c.out) {
		c.head = 0
	}
	c.n--
}

// grow doubles the ring; only reachable when callers push more completions
// than MaxOutstanding without BeginMiss pacing them.
func (c *Core) grow() {
	bigger := make([]float64, 2*len(c.out))
	for i := 0; i < c.n; i++ {
		bigger[i] = c.out[c.idx(i)]
	}
	c.out = bigger
	c.head = 0
}

// drain retires misses that completed before the current core time.
func (c *Core) drain() {
	for c.n > 0 && c.out[c.head] <= c.time {
		c.pop()
	}
}

// Drain waits for every outstanding miss (end of simulation).
func (c *Core) Drain() {
	if c.n > 0 {
		last := c.out[c.idx(c.n-1)]
		if last > c.time {
			c.StallCycles += last - c.time
			c.time = last
		}
		c.head = 0
		c.n = 0
	}
}

// CopyFrom makes c an exact copy of src, its miss ring included, reusing
// c's ring when it is large enough. The zero Core is a valid destination.
func (c *Core) CopyFrom(src *Core) {
	out := append(c.out[:0], src.out...)
	*c = *src
	c.out = out
}
