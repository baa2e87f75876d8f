package main

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"eccparity/internal/blob"
	"eccparity/internal/blob/ec"
	"eccparity/internal/cache"
	"eccparity/internal/dram"
	"eccparity/internal/faultmodel"
	"eccparity/internal/mem"
	"eccparity/internal/parallel"
	"eccparity/internal/resultcache"
	"eccparity/internal/sim"
	"eccparity/internal/sim/report"
	"eccparity/internal/workload"
)

// The ladder drives each layer's public call directly with the workload's
// own inputs, one span per call (or per batch of cheap calls).
const (
	maxGrids     = 4     // evaluation grids (schemeeval points) per ladder
	microCells   = 4     // cells whose access streams feed the micro layers
	microLen     = 50000 // Generator.Next calls per micro cell
	batch        = 1024  // cheap calls per span
	maxPayloads  = 64    // result documents per storage ladder
	eolTrialsDef = 200   // fig8 trials when the workload runs no fig8 point
)

// cell is one simulation the daemon would run for a schemeeval point.
type cell struct {
	key string // the point's result address
	cfg sim.Config
}

// cellsOf expands a schemeeval point into its (scheme × workload) cells,
// exactly as the experiment configures them.
func cellsOf(p point, key string) []cell {
	scheme := p.Params.Scheme
	if scheme == "" {
		scheme = "ondie+chipkill" // schemeeval's default
	}
	var out []cell
	for _, wl := range workload.Names() {
		cfg := sim.DefaultConfig(scheme, sim.QuadEq, wl)
		cfg.MeasureCycles = p.Params.Cycles
		cfg.WarmupAccesses = p.Params.Warmup
		cfg.Seed = p.Params.Seed
		out = append(out, cell{key: key, cfg: cfg})
	}
	return out
}

// ladderRun is what the ladder measured beyond the spans.
type ladderRun struct {
	results   []sim.Result
	gridMs    map[string]float64 // point address → grid wall
	gridCapMs float64            // Σ grid wall × workers
	eolTrials int
	calls     microCalls
}

func runLadder(ctx context.Context, e env, ph *phaseOut, tr *tracer) (*ladderRun, error) {
	lr := &ladderRun{gridMs: map[string]float64{}}
	workers := runtime.NumCPU()
	if ph.refMs == nil {
		ph.refMs = map[string]float64{}
	}

	// report → parallel → sim: for a few schemeeval points, one direct
	// report.Executor run (unless the phase already made one as a
	// reference) and then the same point's evaluation grid, each cell a
	// sim.RunContext span under the grid span.
	var evalPts []point
	for _, p := range append(append([]point(nil), ph.refs...), ph.points...) {
		if p.Experiment == "schemeeval" {
			evalPts = append(evalPts, p)
		}
	}
	var cells []cell
	x := report.NewExecutor(nil)
	for _, p := range evalPts {
		if len(lr.gridMs) == maxGrids {
			break
		}
		key, err := p.key()
		if err != nil {
			return nil, err
		}
		if _, dup := lr.gridMs[key]; dup {
			continue
		}
		if _, ok := ph.refMs[key]; !ok {
			sp := tr.start("report.exec", key, 0)
			t0 := time.Now()
			_, err := x.Run(ctx, p.Experiment, p.Params)
			ph.refMs[key] = ms(time.Since(t0))
			sp.end()
			if err != nil {
				return nil, err
			}
		}
		cs := cellsOf(p, key)
		cells = append(cells, cs...)
		grid := tr.start("parallel.grid", key, 0)
		t0 := time.Now()
		res, err := parallel.Map(ctx, len(cs), workers, func(ctx context.Context, i int) (sim.Result, error) {
			sp := tr.start("sim.run", key, grid.id())
			r, err := sim.RunContext(ctx, cs[i].cfg)
			sp.end()
			return r, err
		})
		wall := time.Since(t0)
		grid.end()
		if err != nil {
			return nil, err
		}
		lr.results = append(lr.results, res...)
		lr.gridMs[key] = ms(wall)
		lr.gridCapMs += ms(wall) * float64(workers)
	}
	// Warmup alone: the same cells with the smallest valid measured window.
	for i, c := range cells {
		if i%4 != 0 {
			continue
		}
		cfg := c.cfg
		cfg.MeasureCycles = 1
		sp := tr.start("sim.warmup", c.key, 0)
		_, err := sim.RunContext(ctx, cfg)
		sp.end()
		if err != nil {
			return nil, err
		}
		// Pair it with the full run of the same cell for the share.
		full := c.cfg
		sp = tr.start("sim.run_paired", c.key, 0)
		_, err = sim.RunContext(ctx, full)
		sp.end()
		if err != nil {
			return nil, err
		}
	}

	// workload → cache → mem, on the access streams of a few cells.
	for i, c := range cells {
		if i >= microCells*len(workload.Names()) || i%len(workload.Names()) >= microCells {
			continue
		}
		lr.calls.add(micro(c, tr))
	}

	// faultmodel: the fig8 campaigns of the workload's fig8 points, or one
	// small campaign at the workload seed when it runs none.
	type eol struct {
		trials int
		seed   int64
	}
	var camps []eol
	for _, p := range ph.refs {
		if p.Experiment == "fig8" {
			camps = append(camps, eol{p.Params.Trials, p.Params.Seed})
		}
	}
	if len(camps) == 0 {
		camps = append(camps, eol{eolTrialsDef, e.seed})
	}
	for _, cp := range camps {
		for _, n := range []int{2, 4, 8, 16} {
			sp := tr.start("faultmodel.eol", "", 0)
			_, err := faultmodel.SimulateEOLContext(ctx, faultmodel.PaperTopology(n), faultmodel.DefaultRates(),
				7*faultmodel.HoursPerYear, cp.trials, cp.seed, 0)
			sp.end()
			if err != nil {
				return nil, err
			}
			lr.eolTrials += cp.trials
		}
	}

	if err := storage(ctx, e, ph, tr); err != nil {
		return nil, err
	}
	return lr, nil
}

// microCalls counts the calls the batched micro spans cover.
type microCalls struct{ next, access, row float64 }

func (m *microCalls) add(o microCalls) {
	m.next += o.next
	m.access += o.access
	m.row += o.row
}

// micro drives Generator.Next, Cache.Access and Controller.AccessRow with
// one cell's streams: the cell's generators feed the cell's LLC geometry,
// and its misses feed the cell's memory controller.
func micro(c cell, tr *tracer) microCalls {
	cfg := c.cfg
	line := cfg.Scheme.Base.Geometry().LineSize
	gens := make([]*workload.Generator, cfg.Cores)
	for i := range gens {
		gens[i] = workload.NewGenerator(cfg.Workload, i, cfg.Seed)
	}
	accs := make([]workload.Access, 0, microLen)
	for len(accs) < microLen {
		sp := tr.start("workload.next", c.key, 0)
		for j := 0; j < batch; j++ {
			accs = append(accs, gens[(len(accs))%len(gens)].Next())
		}
		sp.end()
	}
	llc := cache.New(cfg.LLCBytes, cfg.LLCWays, line)
	var misses []workload.Access
	for i := 0; i < len(accs); i += batch {
		sp := tr.start("cache.access", c.key, 0)
		for _, a := range accs[i:min(i+batch, len(accs))] {
			if hit, _, _ := llc.Access(a.Addr, cache.Data, a.Write); !hit {
				misses = append(misses, a)
			}
		}
		sp.end()
	}
	mc := memConfig(cfg.Scheme, cfg.Class)
	ctrl := mem.NewController(mc)
	mapper := mem.NewAddressMapper(mc.Channels, mc.RanksPerChannel, mc.BanksPerRank, line)
	now := 0.0
	for i := 0; i < len(misses); i += batch {
		sp := tr.start("mem.access_row", c.key, 0)
		for _, a := range misses[i:min(i+batch, len(misses))] {
			loc := mapper.Map(a.Addr)
			now += float64(a.InstrGap)
			ctrl.AccessRow(now, loc.Channel, loc.Rank, loc.Bank, loc.Row, a.Write, mem.ClassData)
		}
		ctrl.Release(now)
		sp.end()
	}
	return microCalls{next: float64(len(accs)), access: float64(len(accs)), row: float64(len(misses))}
}

// memConfig builds the controller configuration the engine uses for a
// scheme and class (the engine's own constructor is internal to sim).
func memConfig(sc sim.SchemeConfig, class sim.SystemClass) mem.Config {
	g := sc.Base.Geometry()
	var chips []dram.Chip
	widest := dram.X4
	for _, cls := range g.Chips {
		for i := 0; i < cls.Count; i++ {
			chips = append(chips, dram.Chip2GbDDR3(dram.Width(cls.Width)).WithOnDieECC(sc.OnDieOverhead))
		}
		widest = max(widest, dram.Width(cls.Width))
	}
	return mem.Config{
		Channels: sc.Channels(class), RanksPerChannel: g.RanksPerChannel,
		BanksPerRank: mem.DefaultBanksPerRank, Chips: chips,
		Timing: dram.TimingForWidth(widest), PowerDownThreshold: mem.DefaultPowerDownThreshold,
		LineBytes: g.LineSize,
	}
}

// storage drives resultcache and blob with the workload's result
// documents: cache misses that persist and publish, an index load, reads
// from each tier, and blob Put/Get on a plain and an erasure-coded store,
// including reads with one shard root hidden.
func storage(ctx context.Context, e env, ph *phaseOut, tr *tracer) error {
	keys := make([]string, 0, len(ph.payloads))
	for k := range ph.payloads {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rand.New(rand.NewSource(e.seed)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	keys = keys[:min(len(keys), maxPayloads)]
	dir := filepath.Join(e.dir, "ladder")

	sharedRoots := ec.DeriveRoots(filepath.Join(dir, "shared"), ecK+ecM)
	shared, err := ec.OpenFS(ecK, ecM, sharedRoots)
	if err != nil {
		return err
	}
	rc, err := resultcache.New(filepath.Join(dir, "disk"), 0, resultcache.WithShared(shared))
	if err != nil {
		return err
	}
	for _, k := range keys {
		v := ph.payloads[k]
		sp := tr.start("resultcache.miss_put", k, 0)
		_, _, err := rc.GetOrCompute(ctx, k, func(context.Context) ([]byte, error) { return v, nil })
		sp.end()
		if err != nil {
			return err
		}
	}
	rc.FlushShared()

	indexDir := ph.diskDir
	if indexDir == "" {
		indexDir = filepath.Join(dir, "disk")
	}
	sp := tr.start("resultcache.new", "", 0)
	_, err = resultcache.New(indexDir, 0)
	sp.end()
	if err != nil {
		return err
	}
	fresh, err := resultcache.New(filepath.Join(dir, "disk"), 0)
	if err != nil {
		return err
	}
	for _, name := range []string{"resultcache.get_disk", "resultcache.get_mem"} {
		for _, k := range keys {
			sp := tr.start(name, k, 0)
			fresh.Get(k)
			sp.end()
		}
	}
	remote, err := resultcache.New("", 0, resultcache.WithShared(shared))
	if err != nil {
		return err
	}
	for _, k := range keys {
		sp := tr.start("resultcache.get_shared", k, 0)
		remote.Get(k)
		sp.end()
	}

	// Blob calls: in situ when the daemon used a shared tier, here otherwise.
	spans := tr.snapshot()
	if len(durations(spans, "blob.ec.get")) == 0 {
		fsb, err := blob.NewFS(filepath.Join(dir, "fs"))
		if err != nil {
			return err
		}
		ecb, err := ec.OpenFS(ecK, ecM, ec.DeriveRoots(filepath.Join(dir, "ec"), ecK+ecM))
		if err != nil {
			return err
		}
		for _, b := range []struct {
			name string
			be   blob.Backend
		}{{"blob.fs", fsb}, {"blob.ec", ecb}} {
			for _, k := range keys {
				if err := timedCall(tr, b.name+".put", k, func() error { return b.be.Put(ctx, k, ph.payloads[k]) }); err != nil {
					return err
				}
			}
			for _, k := range keys {
				if err := timedCall(tr, b.name+".get", k, func() error { _, err := b.be.Get(ctx, k); return err }); err != nil {
					return err
				}
			}
		}
	}
	// Degraded reads: hide the first shard root of the shared store.
	if err := os.Rename(sharedRoots[0], sharedRoots[0]+".hidden"); err != nil {
		return err
	}
	degraded, err := ec.OpenFS(ecK, ecM, sharedRoots)
	if err != nil {
		return err
	}
	for _, k := range keys {
		if err := timedCall(tr, "blob.ec.get_degraded", k, func() error { _, err := degraded.Get(ctx, k); return err }); err != nil {
			return err
		}
	}
	return nil
}

func timedCall(tr *tracer, name, req string, fn func() error) error {
	sp := tr.start(name, req, 0)
	defer sp.end()
	return fn()
}
