package sim

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// warmPairConfigs returns pairs of configs whose warm keys differ in
// exactly one input warmup reads. Run through one Arena, a key that
// dropped that input would restore the other member's warm state. The LLC
// is small enough that warmup evicts dirty lines, so ECC and XOR lines
// are in the warm state too.
func warmPairConfigs() [][2]Config {
	small := func(scheme string, class SystemClass, wl string) Config {
		cfg := DefaultConfig(scheme, class, wl)
		cfg.WarmupAccesses = 2000
		cfg.MeasureCycles = 20000
		cfg.LLCBytes = 256 << 10
		return cfg
	}
	lpe := small("lotecc9", QuadEq, "mcf")
	lpe16 := lpe
	lpe16.Scheme.LinesPerECCLine = 16
	quad := small("lotecc5+parity", QuadEq, "lbm")
	dual := small("lotecc5+parity", DualEq, "lbm")
	wide := small("chipkill36", QuadEq, "milc")
	narrow := small("chipkill18", QuadEq, "milc")
	eccOn := small("lotecc9", DualEq, "soplex")
	eccOff := eccOn
	eccOff.DisableECCCaching = true
	parOn := small("raim+parity", QuadEq, "GemsFDTD")
	parOff := parOn
	parOff.DisableECCCaching = true
	short := small("multiecc", QuadEq, "canneal")
	long := short
	long.WarmupAccesses = 2600
	seed1 := small("raim18", DualEq, "libquantum")
	seed2 := seed1
	seed2.Seed = 2
	return [][2]Config{
		{lpe, lpe16},
		{quad, dual},
		{wide, narrow},
		{eccOn, eccOff},
		{parOn, parOff},
		{short, long},
		{seed1, seed2},
	}
}

// warmTestGrid is arenaTestConfigs plus every member of warmPairConfigs.
func warmTestGrid() []Config {
	grid := arenaTestConfigs()
	for _, p := range warmPairConfigs() {
		grid = append(grid, p[0], p[1])
	}
	return grid
}

func freshResults(t *testing.T, cfgs []Config) []Result {
	t.Helper()
	want := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		r, err := NewArena().RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("fresh run %d: %v", i, err)
		}
		want[i] = r
	}
	return want
}

// TestWarmPairsDifferInOneKeyInput checks that each pair's warm keys
// differ, so the equivalence test below really makes the store tell them
// apart.
func TestWarmPairsDifferInOneKeyInput(t *testing.T) {
	for i, p := range warmPairConfigs() {
		k0, ok0 := warmKeyOf(NewArena().prepare(p[0]))
		k1, ok1 := warmKeyOf(NewArena().prepare(p[1]))
		if !ok0 || !ok1 {
			t.Fatalf("pair %d: a member bypasses the warm store", i)
		}
		if k0 == k1 {
			t.Errorf("pair %d (%s vs %s): warm keys are equal: %+v", i, p[0].Scheme.Key, p[1].Scheme.Key, k0)
		}
	}
}

// TestWarmStoreRestoreMatchesFreshRun runs a heterogeneous grid three times
// through one Arena: the first round warms every key once, the second
// snapshots each repeated key, the third restores from the snapshots.
// Every run must equal a fresh-arena run of the same config.
func TestWarmStoreRestoreMatchesFreshRun(t *testing.T) {
	cfgs := warmTestGrid()
	if len(cfgs) > warmStoreCap {
		t.Fatalf("grid of %d configs overflows the %d-snapshot store; the restore round would miss", len(cfgs), warmStoreCap)
	}
	want := freshResults(t, cfgs)
	a := NewArena()
	for round := 0; round < 3; round++ {
		if round == 2 {
			// Every shareable key has been warmed twice: each must now
			// have a snapshot, so this round runs the restore path.
			for i, cfg := range cfgs {
				k, ok := warmKeyOf(NewArena().prepare(cfg))
				if ok && a.warm.get(&k) == nil {
					t.Fatalf("config %d (%s): no snapshot after two complete warmups", i, cfg.Scheme.Key)
				}
			}
		}
		for i, cfg := range cfgs {
			got, err := a.RunContext(context.Background(), cfg)
			if err != nil {
				t.Fatalf("round %d run %d: %v", round, i, err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("round %d config %d (%s/%s/%s): result diverges from a fresh-arena run\n got: %+v\nwant: %+v",
					round, i, cfg.Scheme.Key, cfg.Class, cfg.Workload.Name, got, want[i])
			}
		}
	}
}

// TestWarmStoreSecondSighting pins the snapshot policy: a key's first
// warmup publishes nothing, its second does.
func TestWarmStoreSecondSighting(t *testing.T) {
	cfg := arenaTestConfigs()[0]
	a := NewArena()
	for run, want := range []int{0, 1, 1} {
		if _, err := a.RunContext(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		if got := len(a.warm.snaps); got != want {
			t.Fatalf("after run %d: %d snapshots, want %d", run+1, got, want)
		}
	}
}

// TestWarmSeenSetBounded: the set of keys warmed once stays at its bound,
// remembering the newest keys and forgetting the oldest.
func TestWarmSeenSetBounded(t *testing.T) {
	var s warmStore
	n := 3 * warmSeenCap
	for i := 0; i < n; i++ {
		k := warmKey{seed: int64(i)}
		if s.sighted(&k) {
			t.Fatalf("key %d reported seen on its first sighting", i)
		}
	}
	if len(s.seen) != warmSeenCap {
		t.Fatalf("seen set holds %d keys, want the bound %d", len(s.seen), warmSeenCap)
	}
	newest := warmKey{seed: int64(n - 1)}
	if !s.sighted(&newest) {
		t.Error("newest key forgotten")
	}
	oldest := warmKey{seed: 0}
	if s.sighted(&oldest) {
		t.Error("oldest key still remembered past the bound")
	}
}

// TestWarmStoreBypass: replayed sources and marked banks never use the
// store, however often they repeat.
func TestWarmStoreBypass(t *testing.T) {
	marked := arenaTestConfigs()[1]
	if marked.MarkedBankFraction == 0 {
		t.Fatal("grid config 1 lost its marked banks")
	}
	want := freshResults(t, []Config{marked})[0]
	a := NewArena()
	for run := 0; run < 3; run++ {
		got, err := a.RunContext(context.Background(), marked)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d diverges from a fresh-arena run", run)
		}
	}
	if n := len(a.warm.snaps); n != 0 {
		t.Fatalf("marked-bank config left %d snapshots, want 0", n)
	}
}

// TestWarmStoreEvictsLRU overfills one arena's store and checks it stays
// at its bound and keeps the most recently used keys.
func TestWarmStoreEvictsLRU(t *testing.T) {
	base := DefaultConfig("chipkill18", QuadEq, "sjeng")
	base.WarmupAccesses = 200
	base.MeasureCycles = 2000
	base.LLCBytes = 64 << 10
	a := NewArena()
	n := warmStoreCap + 4
	for s := 0; s < n; s++ {
		cfg := base
		cfg.Seed = int64(s + 1)
		for i := 0; i < 2; i++ {
			if _, err := a.RunContext(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := len(a.warm.snaps); got != warmStoreCap {
		t.Fatalf("store holds %d snapshots, want the bound %d", got, warmStoreCap)
	}
	for s := 0; s < n; s++ {
		cfg := base
		cfg.Seed = int64(s + 1)
		k, _ := warmKeyOf(NewArena().prepare(cfg))
		if has, want := a.warm.get(&k) != nil, s >= n-warmStoreCap; has != want {
			t.Errorf("seed %d: snapshot present = %v, want %v", s+1, has, want)
		}
	}
}

// cancelAfter is a context whose Err reports cancellation from its
// (n+1)-th call on, so a run stops at a chosen engine checkpoint.
type cancelAfter struct {
	context.Context
	mu sync.Mutex
	n  int
}

func (c *cancelAfter) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestWarmCanceledWarmupPublishesNothing cancels a key's second warmup,
// the one that would snapshot, past its first checkpoint: nothing may be
// published, and the next complete runs must still match a fresh arena.
func TestWarmCanceledWarmupPublishesNothing(t *testing.T) {
	cfg := arenaTestConfigs()[0]
	if cfg.WarmupAccesses <= ctxCheckEvery {
		t.Fatalf("warmup of %d accesses has a single checkpoint; cannot cancel mid-warmup", cfg.WarmupAccesses)
	}
	want := freshResults(t, []Config{cfg})[0]
	a := NewArena()
	if _, err := a.RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	ctx := &cancelAfter{Context: context.Background(), n: 1}
	if _, err := a.RunContext(ctx, cfg); err != context.Canceled {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	if n := len(a.warm.snaps); n != 0 {
		t.Fatalf("canceled warmup published %d snapshots", n)
	}
	for run := 0; run < 2; run++ {
		got, err := a.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d after the canceled warmup diverges from a fresh-arena run", run)
		}
	}
	if n := len(a.warm.snaps); n != 1 {
		t.Fatalf("%d snapshots after two complete warmups, want 1", n)
	}
}

// TestWarmConcurrentRunContext runs the package-level RunContext from
// several goroutines over configs that share warm keys, so pooled arenas
// snapshot and restore concurrently. Run it under -race.
func TestWarmConcurrentRunContext(t *testing.T) {
	grid := arenaTestConfigs()[:4]
	want := freshResults(t, grid)
	const goroutines, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for j := range grid {
					i := (j + g) % len(grid)
					got, err := RunContext(context.Background(), grid[i])
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(got, want[i]) {
						errs <- fmt.Errorf("goroutine %d round %d config %d: result diverges from a fresh-arena run", g, r, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
