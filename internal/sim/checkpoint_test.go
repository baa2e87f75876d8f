package sim

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"eccparity/internal/cache"
	"eccparity/internal/cpu"
	"eccparity/internal/workload"
)

// ckptPairConfigs returns pairs of configs whose run keys differ in
// exactly one field. Run through one Arena, a key that dropped that field
// would resume one member from the other's checkpoint.
func ckptPairConfigs() [][2]Config {
	small := func(scheme string, class SystemClass, wl string) Config {
		cfg := DefaultConfig(scheme, class, wl)
		cfg.WarmupAccesses = 1500
		cfg.MeasureCycles = 12000
		cfg.LLCBytes = 512 << 10
		return cfg
	}
	vary := func(cfg Config, f func(*Config)) [2]Config {
		other := cfg
		f(&other)
		return [2]Config{cfg, other}
	}
	return [][2]Config{
		{small("chipkill18", QuadEq, "mcf"), small("chipkill36", QuadEq, "mcf")},
		vary(small("lotecc9", QuadEq, "lbm"), func(c *Config) { c.Scheme.Traffic = TrafficParity }),
		vary(small("lotecc9", QuadEq, "milc"), func(c *Config) { c.Scheme.LinesPerECCLine = 16 }),
		vary(small("ondie-sec", QuadEq, "mcf"), func(c *Config) { c.Scheme.OnDieOverhead *= 2 }),
		{small("lotecc5+parity", QuadEq, "lbm"), small("lotecc5+parity", DualEq, "lbm")},
		{small("raim", QuadEq, "soplex"), small("raim", QuadEq, "omnetpp")},
		vary(small("chipkill18", DualEq, "libquantum"), func(c *Config) { c.Cores = 4 }),
		vary(small("multiecc", QuadEq, "canneal"), func(c *Config) { c.WarmupAccesses = 2000 }),
		vary(small("chipkill18", QuadEq, "sjeng"), func(c *Config) { c.LLCBytes = 256 << 10 }),
		vary(small("chipkill18", QuadEq, "GemsFDTD"), func(c *Config) { c.LLCWays = 8 }),
		vary(small("raim18", DualEq, "mcf"), func(c *Config) { c.Seed = 2 }),
		vary(small("raim+parity", QuadEq, "milc"), func(c *Config) { c.MarkedBankFraction = 0.1 }),
		vary(small("chipkill36", QuadEq, "omnetpp"), func(c *Config) { c.PowerDownThreshold = 50 }),
		vary(small("raim+parity", DualEq, "mcf"), func(c *Config) { c.SpeedBinFactor = 1.16 }),
		vary(small("lotecc9", DualEq, "soplex"), func(c *Config) { c.DisableECCCaching = true }),
		vary(small("chipkill18", DualEq, "lbm"), func(c *Config) { c.OpenPage = true }),
	}
}

// ckptTestGrid is arenaTestConfigs plus every member of ckptPairConfigs,
// each pair's members adjacent.
func ckptTestGrid() []Config {
	grid := arenaTestConfigs()
	for _, p := range ckptPairConfigs() {
		grid = append(grid, p[0], p[1])
	}
	return grid
}

// markSighted records a sighting of each config's run and warm keys, so
// that its next complete run stores its state.
func markSighted(cfgs ...Config) {
	for _, cfg := range cfgs {
		if k, ok := runKeyOf(&cfg); ok {
			sightings.sighted(k.hash())
		}
		if k, ok := warmKeyOf(NewArena().prepare(cfg)); ok {
			sightings.sighted(k.hash())
		}
	}
}

// runKeyFor is the run key of cfg, which must not bypass the tier.
func runKeyFor(t *testing.T, cfg Config) runKey {
	t.Helper()
	k, ok := runKeyOf(&cfg)
	if !ok {
		t.Fatalf("%s/%s bypasses the checkpoint tier", cfg.Scheme.Key, cfg.Workload.Name)
	}
	return k
}

// TestCheckpointPairsDifferInOneKeyInput checks that each pair's run keys
// differ in exactly one field, that every field is covered by a pair, and
// that the key ignores the budget, the worker count and the progress
// writer.
func TestCheckpointPairsDifferInOneKeyInput(t *testing.T) {
	typ := reflect.TypeOf(runKey{})
	covered := make([]bool, typ.NumField())
	for i, p := range ckptPairConfigs() {
		k0, k1 := reflect.ValueOf(runKeyFor(t, p[0])), reflect.ValueOf(runKeyFor(t, p[1]))
		var differ []string
		for f := 0; f < typ.NumField(); f++ {
			if fmt.Sprint(k0.Field(f)) != fmt.Sprint(k1.Field(f)) {
				differ = append(differ, typ.Field(f).Name)
				covered[f] = true
			}
		}
		if len(differ) != 1 {
			t.Errorf("pair %d (%s vs %s): run keys differ in %v, want exactly one field", i, p[0].Scheme.Key, p[1].Scheme.Key, differ)
		}
	}
	for f, ok := range covered {
		if !ok {
			t.Errorf("run key field %s is not varied by any pair", typ.Field(f).Name)
		}
	}
	cfg := ckptPairConfigs()[0][0]
	other := cfg
	other.MeasureCycles *= 3
	other.Workers = 7
	other.ProgressW = &bytes.Buffer{}
	if runKeyFor(t, cfg) != runKeyFor(t, other) {
		t.Error("run key depends on MeasureCycles, Workers or ProgressW")
	}
}

// TestCheckpointMatchesFreshRun runs a heterogeneous grid, including pairs
// that differ in exactly one run-key field, through one Arena at budgets
// in rising, repeated and falling order. Every result must equal a
// fresh-arena run of the same config and budget, and at least half the
// runs after the first round must have resumed from a checkpoint.
func TestCheckpointMatchesFreshRun(t *testing.T) {
	cfgs := ckptTestGrid()
	budgets := []float64{6000, 9000, 9000, 7000, 8000}
	want := map[float64][]Result{}
	for _, b := range budgets {
		if want[b] == nil {
			for _, cfg := range cfgs {
				want[b] = append(want[b], freshResults(t, []Config{withBudget(cfg, b)})[0])
			}
		}
	}
	markSighted(cfgs...)
	a := NewArena()
	resumed, runs := 0, 0
	for round, b := range budgets {
		for i, cfg := range cfgs {
			cfg = withBudget(cfg, b)
			if k, ok := runKeyOf(&cfg); ok && round > 0 {
				runs++
				if a.store.checkpoint(&k, b) != nil {
					resumed++
				}
			}
			got, err := a.RunContext(context.Background(), cfg)
			if err != nil {
				t.Fatalf("round %d run %d: %v", round, i, err)
			}
			if !reflect.DeepEqual(got, want[b][i]) {
				t.Errorf("round %d (budget %g) config %d (%s/%s/%s): result diverges from a fresh-arena run\n got: %+v\nwant: %+v",
					round, b, i, cfg.Scheme.Key, cfg.Class, cfg.Workload.Name, got, want[b][i])
			}
		}
	}
	// The rising and repeated rounds resume; the falling one finds only
	// the 9000 checkpoints its keys' 6000 ones moved forward to, and the
	// last resumes from what the falling one stored. The byte bound evicts
	// some keys' checkpoints.
	t.Logf("%d of %d runs after the first round resumed; the store holds %d bytes", resumed, runs, a.store.bytes)
	if resumed < runs/2 {
		t.Errorf("%d of %d runs after the first round resumed from a checkpoint, want at least half", resumed, runs)
	}
}

// snapState is the part of a checkpoint a resumed run reads.
type snapState struct {
	LLC         any
	Gens        []workload.Generator
	LastMiss    []uint64
	Ctrl        any
	Cores       any
	Inflight    any
	LastRelease float64
}

func stateOf(sn *snap) snapState {
	return snapState{
		LLC: sn.llc, Gens: sn.gens, LastMiss: sn.lastMiss, Ctrl: sn.ctrl,
		Cores: sn.cores, Inflight: sn.inflight, LastRelease: sn.lastRelease,
	}
}

// storedCheckpoint returns the arena's checkpoint of cfg at exactly its
// budget.
func storedCheckpoint(t *testing.T, a *Arena, cfg Config) *snap {
	t.Helper()
	k := runKeyFor(t, cfg)
	sn := a.store.checkpoint(&k, cfg.MeasureCycles)
	if sn == nil || sn.budget != cfg.MeasureCycles {
		t.Fatalf("%s/%s: no checkpoint at budget %g", cfg.Scheme.Key, cfg.Workload.Name, cfg.MeasureCycles)
	}
	return sn
}

// TestCheckpointStateMatchesStraightRun compares the whole checkpoint a
// resumed run leaves with the one a straight run of the same budget
// leaves. Results alone cannot tell whether the measure loop's lastRelease
// was carried over, since the controller's Release never changes timing;
// the saved bus rings and lastRelease can.
func TestCheckpointStateMatchesStraightRun(t *testing.T) {
	for _, cfg := range arenaTestConfigs() {
		if cfg.ScrubLineInterval > 0 {
			continue
		}
		short, long := withBudget(cfg, 9000), withBudget(cfg, 20000)
		markSighted(cfg)
		chained := NewArena()
		for _, c := range []Config{short, long} {
			if _, err := chained.RunContext(context.Background(), c); err != nil {
				t.Fatal(err)
			}
		}
		straight := NewArena()
		if _, err := straight.RunContext(context.Background(), long); err != nil {
			t.Fatal(err)
		}
		if _, n := countSnaps(chained); n != 1 {
			t.Errorf("%s/%s/%s: %d checkpoints after a resumed run, want 1: the resumed run moves its checkpoint forward",
				cfg.Scheme.Key, cfg.Class, cfg.Workload.Name, n)
		}
		got, want := stateOf(storedCheckpoint(t, chained, long)), stateOf(storedCheckpoint(t, straight, long))
		if !reflect.DeepEqual(got, want) {
			v0, v1 := reflect.ValueOf(got), reflect.ValueOf(want)
			for f := 0; f < v0.NumField(); f++ {
				if !reflect.DeepEqual(v0.Field(f).Interface(), v1.Field(f).Interface()) {
					t.Errorf("%s/%s/%s: resumed checkpoint's %s differs from a straight run's",
						cfg.Scheme.Key, cfg.Class, cfg.Workload.Name, v0.Type().Field(f).Name)
				}
			}
		}
	}
}

// traceSources records each core's live access stream and returns replay
// sources for it.
func traceSources(t *testing.T, cfg Config, perCore int) []workload.Source {
	t.Helper()
	srcs := make([]workload.Source, cfg.Cores)
	for i := range srcs {
		var buf bytes.Buffer
		if err := workload.WriteTrace(&buf, workload.NewGenerator(cfg.Workload, i, cfg.Seed), perCore); err != nil {
			t.Fatal(err)
		}
		tr, err := workload.ReadTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = tr
	}
	return srcs
}

// TestCheckpointBypass: scrubbing runs, replayed sources and schemes
// without a registry key never store or resume from a checkpoint, however
// often they repeat, and still match a fresh-arena run.
func TestCheckpointBypass(t *testing.T) {
	scrub := arenaTestConfigs()[3]
	if scrub.ScrubLineInterval == 0 {
		t.Fatal("grid config 3 lost its scrubber")
	}
	noKey := arenaTestConfigs()[0]
	noKey.Scheme.Key = ""
	replay := withBudget(arenaTestConfigs()[0], 10000)
	live := freshResults(t, []Config{replay})[0]
	cases := []struct {
		name string
		cfg  func() Config
		want Result
	}{
		{"scrub", func() Config { return scrub }, freshResults(t, []Config{scrub})[0]},
		{"no scheme key", func() Config { return noKey }, freshResults(t, []Config{noKey})[0]},
		{"sources", func() Config {
			c := replay
			c.Sources = traceSources(t, c, c.WarmupAccesses+2*int(c.MeasureCycles))
			return c
		}, live},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewArena()
			for run := 0; run < 3; run++ {
				got, err := a.RunContext(context.Background(), tc.cfg())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("run %d diverges from a fresh-arena run", run)
				}
			}
			if _, n := countSnaps(a); n != 0 {
				t.Fatalf("%d checkpoints stored, want 0", n)
			}
		})
	}
}

// TestCheckpointCanceledRunPublishesNothing cancels runs mid-measure, one
// resumed from a checkpoint and one not: neither may store a checkpoint,
// the checkpoint resumed from must be left as it was, and the next
// complete run must match a fresh arena.
func TestCheckpointCanceledRunPublishesNothing(t *testing.T) {
	cfg := arenaTestConfigs()[0]
	short, long := withBudget(cfg, 8000), withBudget(cfg, 40000)
	markSighted(cfg)
	a := NewArena()
	if _, err := a.RunContext(context.Background(), short); err != nil {
		t.Fatal(err)
	}
	from := storedCheckpoint(t, a, short)
	var before snap
	llc := cache.New(cfg.LLCBytes, cfg.LLCWays, cfg.Scheme.Base.Geometry().LineSize)
	llc.Restore(&from.llc)
	llc.SaveTo(&before.llc)
	before.ctrl.CopyFrom(&from.ctrl)
	before.inflight.copyFrom(&from.inflight)
	before.gens = append(before.gens, from.gens...)
	before.lastMiss = append(before.lastMiss, from.lastMiss...)
	before.cores = make([]cpu.Core, len(from.cores))
	for i := range from.cores {
		before.cores[i].CopyFrom(&from.cores[i])
	}
	before.lastRelease = from.lastRelease
	// The resumed run polls ctx at its first and 1025th loop iterations,
	// then is canceled at the 2049th, well inside its window.
	ctx := &cancelAfter{Context: context.Background(), n: 2}
	if _, err := a.RunContext(ctx, long); err != context.Canceled {
		t.Fatalf("canceled resumed run returned %v, want context.Canceled", err)
	}
	if _, n := countSnaps(a); n != 1 {
		t.Fatalf("%d checkpoints after a canceled resumed run, want the 1 it resumed from", n)
	}
	if !reflect.DeepEqual(stateOf(from), stateOf(&before)) {
		t.Fatal("the canceled run changed the checkpoint it resumed from")
	}

	// Not resumed: a shorter warmup is another key; its warmup completes
	// (one poll) and its window is canceled.
	other := withBudget(cfg, 40000)
	other.WarmupAccesses = 1000
	markSighted(other)
	ctx = &cancelAfter{Context: context.Background(), n: 3}
	if _, err := a.RunContext(ctx, other); err != context.Canceled {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	if _, n := countSnaps(a); n != 1 {
		t.Fatalf("%d checkpoints after a canceled run, want 1", n)
	}

	got, err := a.RunContext(context.Background(), long)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, freshResults(t, []Config{long})[0]) {
		t.Fatal("run after the canceled runs diverges from a fresh-arena run")
	}
}

// sizedSnap is a checkpoint entry whose footprint is exactly n bytes.
func sizedSnap(budget float64, n int) *snap {
	return &snap{ckpt: true, budget: budget, lastMiss: make([]uint64, n/8)}
}

// TestCheckpointStoreEvictsLRU fills a store to its byte bound and checks
// that one more entry evicts the least recently used, that a lookup counts
// as a use, that take reuses the least recently used entry once the store
// is full or the entry a run resumed from, and that an entry larger than
// the bound is not kept.
func TestCheckpointStoreEvictsLRU(t *testing.T) {
	const n = 16
	size := storeBytes / n
	var s snapStore
	var k runKey
	for i := 0; i < n; i++ {
		s.put(sizedSnap(float64(i), size))
	}
	if s.bytes != storeBytes || len(s.snaps) != n {
		t.Fatalf("store holds %d entries, %d bytes; want %d, %d", len(s.snaps), s.bytes, n, storeBytes)
	}
	if sn := s.checkpoint(&k, 0); sn == nil || sn.budget != 0 {
		t.Fatal("lookup of budget 0 missed")
	}
	s.put(sizedSnap(n, size))
	has := func(budget float64) bool {
		for _, sn := range s.snaps {
			if sn.budget == budget {
				return true
			}
		}
		return false
	}
	if has(1) || !has(0) || !has(n) || s.bytes > storeBytes {
		t.Fatalf("after overflow: budget 1 kept=%v (want false), 0 kept=%v, %d kept=%v, %d bytes",
			has(1), has(0), n, has(n), s.bytes)
	}
	if sn := s.take(nil); sn.budget != 2 || has(2) {
		t.Fatalf("take returned budget %g, want the least recently used 2, removed", sn.budget)
	}
	from := s.checkpoint(&k, 5)
	if sn := s.take(from); sn != from || has(5) {
		t.Fatal("take of the checkpoint resumed from did not remove and return it")
	}
	s.put(sizedSnap(-1, storeBytes+8))
	if has(-1) || s.bytes > storeBytes {
		t.Fatalf("an entry over the whole bound was kept (%d bytes stored)", s.bytes)
	}
}

// TestCheckpointConcurrentRunContext runs the package-level RunContext
// from several goroutines over shared keys at budgets in a different
// order per goroutine, so pooled arenas store and resume checkpoints
// concurrently. Run it under -race.
func TestCheckpointConcurrentRunContext(t *testing.T) {
	grid := []Config{arenaTestConfigs()[0], arenaTestConfigs()[2], arenaTestConfigs()[4]}
	budgets := []float64{8000, 10000, 12000}
	want := map[[2]int]Result{}
	for i, cfg := range grid {
		for j, b := range budgets {
			want[[2]int{i, j}] = freshResults(t, []Config{withBudget(cfg, b)})[0]
		}
	}
	const goroutines, rounds = 4, 2
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for n := 0; n < len(grid)*len(budgets); n++ {
					i, j := (n+g)%len(grid), (n/len(grid)+g+r)%len(budgets)
					got, err := RunContext(context.Background(), withBudget(grid[i], budgets[j]))
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(got, want[[2]int{i, j}]) {
						errs <- fmt.Errorf("goroutine %d round %d config %d budget %g: result diverges from a fresh-arena run", g, r, i, budgets[j])
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
