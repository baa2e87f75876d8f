package sim

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
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

// unseenSeeds is the last seed block handed out by unseen.
var unseenSeeds atomic.Int64

// unseen returns cfgs with their seeds moved, by one offset, to a block no
// other test in this process uses: the process-wide sighting set has seen
// none of their keys, so a test can pin which run is a key's first. Seeds
// that differ within cfgs still differ.
func unseen(cfgs ...Config) []Config {
	off := (1 << 40) + unseenSeeds.Add(1)<<20
	out := make([]Config, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Seed += off
		out[i] = cfg
	}
	return out
}

// withBudget returns cfg with its measured window set to cycles.
func withBudget(cfg Config, cycles float64) Config {
	cfg.MeasureCycles = cycles
	return cfg
}

// countSnaps returns how many warm snapshots and end-of-window checkpoints
// the arena stores.
func countSnaps(a *Arena) (warm, ckpt int) {
	for _, sn := range a.store.snaps {
		if sn.ckpt {
			ckpt++
		} else {
			warm++
		}
	}
	return warm, ckpt
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
// Every run must equal a fresh-arena run of the same config. The seeds are
// unseen and each round's window is shorter than the last, so no run can
// resume from an end-of-window checkpoint and every round runs warmStart.
func TestWarmStoreRestoreMatchesFreshRun(t *testing.T) {
	cfgs := unseen(warmTestGrid()...)
	budgets := []float64{12000, 11000, 10000}
	a := NewArena()
	got := make([][]Result, len(budgets))
	for round, budget := range budgets {
		if round == 2 {
			// Every shareable key has been warmed twice: each must now
			// have a snapshot, so this round runs the restore path.
			for i, cfg := range cfgs {
				k, ok := warmKeyOf(NewArena().prepare(cfg))
				if ok && a.store.warmSnap(&k) == nil {
					t.Fatalf("config %d (%s): no snapshot after two complete warmups", i, cfg.Scheme.Key)
				}
			}
		}
		for i, cfg := range cfgs {
			r, err := a.RunContext(context.Background(), withBudget(cfg, budget))
			if err != nil {
				t.Fatalf("round %d run %d: %v", round, i, err)
			}
			got[round] = append(got[round], r)
		}
	}
	for round, budget := range budgets {
		for i, cfg := range cfgs {
			want := freshResults(t, []Config{withBudget(cfg, budget)})[0]
			if !reflect.DeepEqual(got[round][i], want) {
				t.Errorf("round %d config %d (%s/%s/%s): result diverges from a fresh-arena run\n got: %+v\nwant: %+v",
					round, i, cfg.Scheme.Key, cfg.Class, cfg.Workload.Name, got[round][i], want)
			}
		}
	}
}

// TestWarmStoreSecondSighting pins the snapshot policy: a key's first
// warmup publishes nothing, its second does. The third run's window is
// shorter, so it restores the warm snapshot rather than a checkpoint.
func TestWarmStoreSecondSighting(t *testing.T) {
	cfg := unseen(arenaTestConfigs()[0])[0]
	a := NewArena()
	for run, want := range []int{0, 1, 1} {
		if _, err := a.RunContext(context.Background(), withBudget(cfg, cfg.MeasureCycles-float64(1000*run))); err != nil {
			t.Fatal(err)
		}
		if got, _ := countSnaps(a); got != want {
			t.Fatalf("after run %d: %d snapshots, want %d", run+1, got, want)
		}
	}
}

// TestWarmSeenSetBounded: the set of keys sighted once stays at its bound,
// remembering the newest keys and forgetting the oldest.
func TestWarmSeenSetBounded(t *testing.T) {
	var s sightingSet
	n := 3 * sightCap
	for i := 0; i < n; i++ {
		k := warmKey{seed: int64(i)}
		if s.sighted(k.hash()) {
			t.Fatalf("key %d reported seen on its first sighting", i)
		}
	}
	if len(s.seen) != sightCap {
		t.Fatalf("seen set holds %d keys, want the bound %d", len(s.seen), sightCap)
	}
	newest := warmKey{seed: int64(n - 1)}
	if !s.sighted(newest.hash()) {
		t.Error("newest key forgotten")
	}
	oldest := warmKey{seed: 0}
	if s.sighted(oldest.hash()) {
		t.Error("oldest key still remembered past the bound")
	}
}

// TestWarmStoreBypass: replayed sources and marked banks never use the
// warm snapshots, however often they repeat. Each run's window is shorter
// than the last, so none resumes from a checkpoint and every run warms.
func TestWarmStoreBypass(t *testing.T) {
	marked := arenaTestConfigs()[1]
	if marked.MarkedBankFraction == 0 {
		t.Fatal("grid config 1 lost its marked banks")
	}
	a := NewArena()
	for run := 0; run < 3; run++ {
		cfg := withBudget(marked, marked.MeasureCycles-float64(1000*run))
		got, err := a.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, freshResults(t, []Config{cfg})[0]) {
			t.Fatalf("run %d diverges from a fresh-arena run", run)
		}
	}
	if n, _ := countSnaps(a); n != 0 {
		t.Fatalf("marked-bank config left %d snapshots, want 0", n)
	}
}

// TestWarmStoreEvictsLRU overfills one arena's store with warm snapshots
// of unseen seeds and checks that it stays within its byte bound and keeps
// the most recently used keys: the snapshots left are those of the newest
// seeds, and the oldest are gone. Each seed's second run has the shorter
// window, so it warms rather than resuming.
func TestWarmStoreEvictsLRU(t *testing.T) {
	base := DefaultConfig("chipkill18", QuadEq, "sjeng")
	base.WarmupAccesses = 200
	base.MeasureCycles = 2000
	base.LLCBytes = 64 << 10
	a := NewArena()
	var seeds []Config
	has := func(cfg Config) bool {
		k, _ := warmKeyOf(NewArena().prepare(cfg))
		for _, sn := range a.store.snaps {
			if !sn.ckpt && sn.warm == k {
				return true
			}
		}
		return false
	}
	for extra := 0; extra < 4; {
		if len(seeds) > 4096 {
			t.Fatalf("%d keys never overflowed a %d-byte store", len(seeds), storeBytes)
		}
		cfg := unseen(base)[0]
		seeds = append(seeds, cfg)
		for i := 0; i < 2; i++ {
			if _, err := a.RunContext(context.Background(), withBudget(cfg, base.MeasureCycles-float64(100*i))); err != nil {
				t.Fatal(err)
			}
		}
		if !has(seeds[0]) {
			extra++
		}
	}
	if a.store.bytes > storeBytes {
		t.Fatalf("store holds %d bytes, over the bound %d", a.store.bytes, storeBytes)
	}
	kept := 0
	for s := len(seeds) - 1; s >= 0 && has(seeds[s]); s-- {
		kept++
	}
	for s, cfg := range seeds {
		if got, want := has(cfg), s >= len(seeds)-kept; got != want {
			t.Errorf("seed %d of %d: snapshot present = %v, want %v (the newest %d kept)", s, len(seeds), got, want, kept)
		}
	}
	t.Logf("%d seeds run, the newest %d kept in %d bytes", len(seeds), kept, a.store.bytes)
	if kept < 2 {
		t.Errorf("only %d snapshots kept", kept)
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
// The last run's window is shorter, so it restores the warm snapshot.
func TestWarmCanceledWarmupPublishesNothing(t *testing.T) {
	cfg := unseen(arenaTestConfigs()[0])[0]
	if cfg.WarmupAccesses <= ctxCheckEvery {
		t.Fatalf("warmup of %d accesses has a single checkpoint; cannot cancel mid-warmup", cfg.WarmupAccesses)
	}
	a := NewArena()
	if _, err := a.RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	ctx := &cancelAfter{Context: context.Background(), n: 1}
	if _, err := a.RunContext(ctx, cfg); err != context.Canceled {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	if w, c := countSnaps(a); w+c != 0 {
		t.Fatalf("canceled warmup published %d snapshots and %d checkpoints", w, c)
	}
	for run := 0; run < 2; run++ {
		c := withBudget(cfg, cfg.MeasureCycles-float64(1000*run))
		got, err := a.RunContext(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, freshResults(t, []Config{c})[0]) {
			t.Fatalf("run %d after the canceled warmup diverges from a fresh-arena run", run)
		}
	}
	if n, _ := countSnaps(a); n != 1 {
		t.Fatalf("%d snapshots after two complete warmups, want 1", n)
	}
}

// TestWarmConcurrentRunContext runs the package-level RunContext from
// several goroutines over configs that share warm keys, so pooled arenas
// snapshot and restore concurrently. Each goroutine and round runs its own
// power-down threshold, which warmup does not read: the runs share warm
// keys but no run key, so none resumes from a checkpoint. Run it under
// -race.
func TestWarmConcurrentRunContext(t *testing.T) {
	grid := arenaTestConfigs()[:4]
	const goroutines, rounds = 4, 2
	cfgOf := func(g, r, i int) Config {
		cfg := withBudget(grid[i], 10000)
		cfg.PowerDownThreshold = float64(20 + g*rounds + r)
		return cfg
	}
	want := make(map[[3]int]Result)
	for g := 0; g < goroutines; g++ {
		for r := 0; r < rounds; r++ {
			for i := range grid {
				want[[3]int{g, r, i}] = freshResults(t, []Config{cfgOf(g, r, i)})[0]
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for j := range grid {
					i := (j + g) % len(grid)
					got, err := RunContext(context.Background(), cfgOf(g, r, i))
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(got, want[[3]int{g, r, i}]) {
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
