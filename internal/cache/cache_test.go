package cache

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestHitAfterMiss(t *testing.T) {
	c := New(8<<20, 16, 64)
	hit, _, _ := c.Access(0x1000, Data, false)
	if hit {
		t.Fatal("first access must miss")
	}
	hit, _, _ = c.Access(0x1000, Data, false)
	if !hit {
		t.Fatal("second access must hit")
	}
	if c.Stats().Hits[Data] != 1 || c.Stats().Misses[Data] != 1 {
		t.Fatalf("stats wrong: %+v", c.Stats())
	}
}

func TestSameLineDifferentOffsetsHit(t *testing.T) {
	c := New(8<<20, 16, 128)
	c.Access(0x1000, Data, false)
	if hit, _, _ := c.Access(0x1040, Data, false); !hit {
		t.Fatal("offset within a 128B line must hit — this is the large-line spatial-locality effect")
	}
}

func TestKindsDoNotAlias(t *testing.T) {
	c := New(8<<20, 16, 64)
	c.Access(0x2000, Data, false)
	if hit, _, _ := c.Access(0x2000, XOR, false); hit {
		t.Fatal("same address with different kind must not hit")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := New(1<<10, 1, 64) // 16 sets, direct mapped: easy conflicts
	c.Access(0x0, Data, true)
	// Same set: addresses 16 lines apart.
	_, victim, evicted := c.Access(16*64, Data, false)
	if !evicted || !victim.Dirty || victim.Addr != 0 || victim.Kind != Data {
		t.Fatalf("dirty victim not reported: %+v (evicted=%v)", victim, evicted)
	}
	if c.Stats().Evictions[Data] != 1 {
		t.Fatal("eviction not counted")
	}
}

func TestCleanEvictionReported(t *testing.T) {
	c := New(1<<10, 1, 64)
	c.Access(0x0, Data, false)
	_, victim, evicted := c.Access(16*64, Data, false)
	if !evicted || victim.Dirty {
		t.Fatalf("clean victim mis-reported: %+v (evicted=%v)", victim, evicted)
	}
}

func TestLRUOrder(t *testing.T) {
	c := New(2*64, 2, 64) // 1 set, 2 ways
	c.Access(0, Data, false)
	c.Access(64, Data, false)
	c.Access(0, Data, false) // touch 0: 64 becomes LRU
	_, victim, evicted := c.Access(128, Data, false)
	if !evicted || victim.Addr != 64 {
		t.Fatalf("LRU victim should be 64, got %+v (evicted=%v)", victim, evicted)
	}
}

func TestWriteSetsDirty(t *testing.T) {
	c := New(2*64, 2, 64)
	c.Access(0, Data, false)
	c.Access(0, Data, true) // hit-write dirties
	c.Access(64, Data, false)
	_, victim, evicted := c.Access(128, Data, false) // evicts 0
	if !evicted || !victim.Dirty {
		t.Fatalf("hit-write must dirty the line: %+v (evicted=%v)", victim, evicted)
	}
}

func TestProbeDoesNotAllocate(t *testing.T) {
	c := New(8<<20, 16, 64)
	if c.Probe(0x3000, ECC) {
		t.Fatal("probe of absent line")
	}
	if c.Stats().Misses[ECC] != 0 {
		t.Fatal("probe must not count as a miss")
	}
	c.Access(0x3000, ECC, false)
	if !c.Probe(0x3000, ECC) {
		t.Fatal("probe of present line")
	}
}

func TestAllocateMatchesProbeThenAccess(t *testing.T) {
	// Allocate is the prefetcher's Probe-then-Access pair fused into one
	// scan: a present line is left untouched, an absent one fills exactly
	// like a missing Access.
	c := New(2*64, 2, 64)
	if present, _, _ := c.Allocate(0, Data); present {
		t.Fatal("allocate of absent line must report absent")
	}
	if !c.Probe(0, Data) {
		t.Fatal("allocate must fill the line")
	}
	if c.Stats().Misses[Data] != 1 {
		t.Fatalf("allocate miss not counted: %+v", c.Stats())
	}
	// Present line: no hit count, no LRU promotion.
	c.Access(64, Data, false)
	if present, _, _ := c.Allocate(0, Data); !present {
		t.Fatal("allocate of present line must report present")
	}
	if c.Stats().Hits[Data] != 0 {
		t.Fatal("allocate of present line must not count a hit")
	}
	// 0 was not promoted by Allocate, so it is still the LRU victim.
	_, victim, evicted := c.Access(128, Data, false)
	if !evicted || victim.Addr != 0 {
		t.Fatalf("allocate must not touch LRU order: victim %+v (evicted=%v)", victim, evicted)
	}
	// Allocate can itself evict.
	c2 := New(1<<10, 1, 64)
	c2.Access(0, Data, true)
	if _, v, ev := c2.Allocate(16*64, Data); !ev || v.Addr != 0 || !v.Dirty {
		t.Fatalf("allocate eviction wrong: %+v (evicted=%v)", v, ev)
	}
}

func TestFlushDirty(t *testing.T) {
	c := New(1<<12, 4, 64)
	c.Access(0, Data, true)
	c.Access(64, XOR, true)
	c.Access(128, ECC, false)
	var flushed []Evicted
	c.FlushDirty(func(e Evicted) { flushed = append(flushed, e) })
	if len(flushed) != 2 {
		t.Fatalf("flushed %d lines, want 2 dirty", len(flushed))
	}
	// Flushing twice must be a no-op.
	n := 0
	c.FlushDirty(func(Evicted) { n++ })
	if n != 0 {
		t.Fatal("second flush must find nothing dirty")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two sets must panic")
		}
	}()
	New(3*64, 1, 64)
}

func TestWorkingSetBehaviour(t *testing.T) {
	// A working set within capacity converges to ~0 miss rate; one at 2×
	// capacity thrashes. This anchors the workload calibration.
	c := New(1<<16, 16, 64) // 64KB
	small := 512            // lines = 32KB
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < small; i++ {
			c.Access(uint64(i*64), Data, false)
		}
	}
	if mr := c.Stats().MissRate(Data); mr > 0.3 {
		t.Fatalf("fitting working set miss rate %v", mr)
	}
	c2 := New(1<<16, 16, 64)
	big := 2048 // 128KB working set in a 64KB cache
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < big; i++ {
			c2.Access(uint64(i*64), Data, false)
		}
	}
	if mr := c2.Stats().MissRate(Data); mr < 0.9 {
		t.Fatalf("thrashing working set miss rate %v", mr)
	}
}

func TestAccessInvariants(t *testing.T) {
	// Property: hits+misses equals accesses; evictions ≤ misses.
	c := New(1<<14, 8, 64)
	f := func(addrs []uint16) bool {
		for _, a := range addrs {
			c.Access(uint64(a)*64, Data, a%3 == 0)
		}
		s := c.Stats()
		return s.Evictions[Data] <= s.Misses[Data]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRestore fills a cache part way, snapshots it, keeps using it,
// restores, and checks the restored cache equals the snapshotted one in
// lines, counters and every later access — also after the snapshot's
// buffers are reused for a different state.
func TestSnapshotRestore(t *testing.T) {
	drive := func(c *Cache, seed uint64, n int) {
		x := seed
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			c.Access((x>>20)%(1<<22)*64, Kind((x>>8)%3), x&1 == 0)
		}
	}
	c := New(64<<10, 8, 64)
	drive(c, 1, 600) // about half the 1024 lines: partial sets
	ref := New(64<<10, 8, 64)
	drive(ref, 1, 600)

	var s Snapshot
	c.SaveTo(&s)
	if len(s.keys) >= len(c.keys) {
		t.Fatalf("snapshot of a partly filled cache holds %d keys, want fewer than %d", len(s.keys), len(c.keys))
	}
	drive(c, 2, 5000)
	c.Restore(&s)
	if !slices.Equal(c.keys, ref.keys) || c.stats != ref.stats {
		t.Fatal("restored cache differs from the snapshotted state")
	}
	drive(c, 3, 3000)
	drive(ref, 3, 3000)
	if !slices.Equal(c.keys, ref.keys) || c.stats != ref.stats {
		t.Fatal("restored cache diverges from the original on later accesses")
	}

	// Reuse the buffers for a full cache, then for the partial one again.
	full := New(64<<10, 8, 64)
	drive(full, 4, 20000)
	full.SaveTo(&s)
	c.Restore(&s)
	if !slices.Equal(c.keys, full.keys) || c.stats != full.stats {
		t.Fatal("restore of a full cache through reused buffers differs")
	}
	ref.SaveTo(&s)
	c.Restore(&s)
	if !slices.Equal(c.keys, ref.keys) || c.stats != ref.stats {
		t.Fatal("restore after shrinking the reused buffers differs")
	}
}

func TestRestoreGeometryMismatchPanics(t *testing.T) {
	for _, tc := range []struct {
		name     string
		from, to *Cache
	}{
		{"fewer sets", New(64<<10, 8, 64), New(32<<10, 8, 64)},
		{"same sets, fewer ways", New(64<<10, 8, 64), New(32<<10, 4, 64)},
	} {
		var s Snapshot
		tc.from.SaveTo(&s)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: restore into a different geometry did not panic", tc.name)
				}
			}()
			tc.to.Restore(&s)
		}()
	}
}
