package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eccparity/internal/blob"
	"eccparity/internal/blob/ec"
	"eccparity/internal/resultcache"
	"eccparity/internal/serve"
	"eccparity/internal/sim"
	"eccparity/internal/sim/report"
	"eccparity/pkg/api"
)

// cached-reads: an open loop against a daemon restarted over a pre-built
// corpus. Part of the corpus is on the local disk tier and all of it is in
// a healthy k+m erasure-coded shared tier. Most requests read corpus keys
// drawn Zipf-skewed; a fixed share are new-seed cheap computes that persist
// to disk and publish to the shared tier. Nothing in the repository fixes
// this traffic: every constant below is an assumption, listed with its
// reason and the tier shares it produces in README.md ("Assumed inputs").
const (
	ecK, ecM        = 4, 2
	analyticSeeds   = 40  // corpus entries per analytic experiment
	evalSeeds       = 6   // corpus schemeeval seeds per scheme
	diskShare       = 0.5 // corpus share also on the local disk tier
	writeShare      = 0.1 // requests that are new-seed computes
	readRate        = 500.0
	readShare       = 0.8 // of the budget; then the replays
	replayShare     = 0.1 // of the budget: cached-sweep replays, at least minReplays
	minReplays      = 5
	zipfS           = 1.1
	writeExperiment = "table3"
	writeTrials     = 10 // keeps each write's Monte Carlo under a millisecond
)

// analyticExperiments are the corpus's small analytic tables.
var analyticExperiments = []string{"fig1", "table1", "table2", "fig18", "counters", "hpcstall", "undetected", "mixedrank"}

// corpus is the pre-built result set, on disk as a template that each
// phase copies.
type corpus struct {
	pts      []point
	keys     []string
	docs     map[string][]byte
	onDisk   map[string]bool
	evalPts  []point // the schemeeval entries, in sweep-expansion order
	seeds    []int64 // their seed axis
	template string
}

// buildCorpus builds the corpus for a seed under dir. Building is
// preparation: nothing here is timed.
func buildCorpus(ctx context.Context, seed int64, dir string) (*corpus, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	c := &corpus{docs: map[string][]byte{}, onDisk: map[string]bool{}, template: dir}
	for _, exp := range analyticExperiments {
		for _, s := range rng.Perm(1000)[:analyticSeeds] {
			p, err := newPoint(exp, report.Params{Seed: int64(1 + s)})
			if err != nil {
				return nil, err
			}
			c.pts = append(c.pts, p)
		}
	}
	for _, s := range rng.Perm(1000)[:evalSeeds] {
		c.seeds = append(c.seeds, int64(1+s))
	}
	for _, sc := range sim.SchemeKeys() {
		for _, s := range c.seeds {
			p, err := newPoint("schemeeval", report.Params{Scheme: sc, Cycles: probeCyc, Warmup: probeWarm, Seed: s})
			if err != nil {
				return nil, err
			}
			c.evalPts = append(c.evalPts, p)
		}
	}
	c.pts = append(c.pts, c.evalPts...)
	var err error
	if c.keys, err = keysOf(c.pts); err != nil {
		return nil, err
	}
	x := report.NewExecutor(nil)
	for i, p := range c.pts {
		_, b, err := reference(ctx, x, p)
		if err != nil {
			return nil, err
		}
		c.docs[c.keys[i]] = b
	}
	for _, i := range sample(rng, len(c.pts), diskShare, 1) {
		c.onDisk[c.keys[i]] = true
	}

	disk, err := resultcache.New(filepath.Join(dir, "disk"), 0)
	if err != nil {
		return nil, err
	}
	shared, err := ec.OpenFS(ecK, ecM, ec.DeriveRoots(filepath.Join(dir, "shared"), ecK+ecM))
	if err != nil {
		return nil, err
	}
	for _, k := range c.keys {
		doc := c.docs[k]
		if err := shared.Put(ctx, k, doc); err != nil {
			return nil, fmt.Errorf("corpus: shared put: %w", err)
		}
		if c.onDisk[k] {
			if _, _, err := disk.GetOrCompute(ctx, k, func(context.Context) ([]byte, error) { return doc, nil }); err != nil {
				return nil, fmt.Errorf("corpus: disk put: %w", err)
			}
		}
	}
	return c, nil
}

func cachedReads(ctx context.Context, e env) (*phaseOut, error) {
	// The phases of one run share the corpus: it is built once, and each
	// phase copies it.
	if e.shared.corpus == nil {
		c, err := buildCorpus(ctx, e.seed, filepath.Join(e.runDir, "corpus"))
		if err != nil {
			return nil, err
		}
		e.shared.corpus = c
	}
	c := e.shared.corpus
	if err := copyTree(c.template, e.dir); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(c.pts)-1))
	rank := popularity(rng, c.pts)
	checked := map[string]bool{}
	for _, k := range c.keys {
		checked[k] = true
	}

	var ecb *ec.Backend
	d, setup, err := bringUp(func() (serve.Options, error) {
		roots := make([]blob.Backend, ecK+ecM)
		for i, dir := range ec.DeriveRoots(filepath.Join(e.dir, "shared"), ecK+ecM) {
			fs, err := blob.NewFS(dir)
			if err != nil {
				return serve.Options{}, err
			}
			roots[i] = timed(fs, "blob.fs", e.tr)
		}
		b, err := ec.New(ecK, ecM, roots)
		if err != nil {
			return serve.Options{}, err
		}
		ecb = b
		return serve.Options{
			QueueCap: 1024, MaxSweepPoints: len(c.evalPts),
			CacheDir: filepath.Join(e.dir, "disk"), Blob: timed(b, "blob.ec", e.tr),
		}, nil
	}, e.tr)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	f := &fetcher{c: d.client, tr: e.tr, checked: checked}
	f.corrupt.Store(e.corrupt)
	out := &phaseOut{points: c.pts, waits: map[string][]float64{}, diskDir: filepath.Join(e.dir, "disk"), payloads: c.docs}
	if e.tr != nil {
		if out.scr, err = startScraper(d, 50*time.Millisecond, jobWorkers); err != nil {
			return nil, err
		}
	}

	m := newMix(f, c.pts, c.keys, rng, "req", func() int { return rank[zipf.Uint64()] })
	readDur := time.Duration(float64(e.budget) * readShare)
	polls0 := d.rt.polls.Load()
	main := openLoop(ctx, fixedRate(readRate, readDur), 5*time.Second, e.tr, m.next)
	out.polls, out.jobs = d.rt.polls.Load()-polls0, len(m.writes)
	if out.scr != nil {
		out.scr.stop()
	}
	heap := heapMB()
	_, in := pointLatencies(main, e.limit)
	out.tiers = tierShares(main, c.onDisk)

	var replayRates []float64
	var replayOps []op
	replayEnd := time.Now().Add(time.Duration(float64(e.budget) * replayShare))
	evalKeys := c.keys[len(c.keys)-len(c.evalPts):]
	for r := 0; r < minReplays || time.Now().Before(replayEnd); r++ {
		ops, wall, err := replaySweep(ctx, f, api.SweepRequest{
			Base: api.SubmitRequest{Experiment: "schemeeval", Cycles: probeCyc, Warmup: probeWarm, Submitter: "replay"},
			Axes: api.SweepAxes{Scheme: sim.SchemeKeys(), Seed: c.seeds},
		}, evalKeys, r)
		if err != nil {
			return nil, err
		}
		done, _ := pointLatencies(ops, time.Hour)
		replayRates = append(replayRates, ratio(float64(len(done)), wall.Seconds()))
		replayOps = append(replayOps, ops...)
	}

	var capOps []op
	if e.ramp > 0 {
		out.capRate, capOps = maxRate(ctx, searchLo, searchHi, e.ramp, e.readLimit, e.tr, m.next)
	}

	// Reference fingerprints: the corpus documents, plus every write
	// recomputed directly now that the timed windows are over.
	refs := map[string]string{}
	for k, doc := range c.docs {
		refs[k] = shaHex(doc)
	}
	wrRefs, wrMs, _, err := computeRefs(ctx, m.writes, e.tr)
	if err != nil {
		return nil, err
	}
	for k, v := range wrRefs {
		refs[k] = v
	}
	out.led = newLedger()
	out.led.settle(main, refs)
	out.led.settle(replayOps, refs)
	out.led.settle(capOps, refs)
	out.refs, out.refMs = m.writes, wrMs
	for _, o := range main {
		if o.kind == "read" {
			out.reads = append(out.reads, o)
		}
		if o.job != "" {
			out.waits["interactive"] = append(out.waits["interactive"], ms(o.wait))
		}
	}
	out.lags, out.capLags = lagsOf(main), lagsOf(capOps)
	if e.tr != nil {
		out.waits["sweep"] = classProbe(ctx, f, api.PrioritySweep, e.seed)
		out.shardErrors = float64(ecb.RepairStats().ShardErrors)
	}
	out.e2e = map[string]float64{
		"setup_s":            setup,
		"sweep_points_per_s": median(replayRates),
		"latency_p25_ms":     windowPct(main, 25, latencyWindow),
		"latency_p50_ms":     windowPct(main, 50, latencyWindow),
		"latency_p95_ms":     windowPct(main, 95, latencyWindow),
		"latency_p99_ms":     windowPct(main, 99, latencyWindow),
		"slo_attain":         ratio(float64(in), float64(len(main))),
		"heap_live_mb":       heap,
	}
	return out, nil
}

// popularity orders the corpus by Zipf rank: rank[r] is the corpus index
// of the r-th most requested key. The ranks cycle through the corpus's
// experiments in a fixed order, and the seed only picks which of an
// experiment's entries takes each of that experiment's ranks. Documents
// of different experiments differ in size by up to 14×, and a few ranks
// draw half the reads, so a seeded shuffle of the whole corpus would let
// the seed pick the hot documents' sizes, and with them the latency.
func popularity(rng *rand.Rand, pts []point) []int {
	var exps []string
	byExp := map[string][]int{}
	for i, p := range pts {
		if byExp[p.Experiment] == nil {
			exps = append(exps, p.Experiment)
		}
		byExp[p.Experiment] = append(byExp[p.Experiment], i)
	}
	for _, exp := range exps {
		idx := byExp[exp]
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	}
	rank := make([]int, 0, len(pts))
	for r := 0; len(rank) < len(pts); r++ {
		for _, exp := range exps {
			if idx := byExp[exp]; r < len(idx) {
				rank = append(rank, idx[r])
			}
		}
	}
	return rank
}

// replaySweep resubmits a sweep whose points are all cached and fetches
// every point's result over all connections at once. A point the daemon
// did not serve from cache, or addressed differently, fails.
func replaySweep(ctx context.Context, f *fetcher, req api.SweepRequest, keys []string, round int) ([]op, time.Duration, error) {
	t0 := time.Now()
	st, err := f.c.SubmitSweep(ctx, req)
	if err != nil {
		return nil, 0, fmt.Errorf("replay sweep: %w", err)
	}
	if len(st.Points) != len(keys) {
		return nil, 0, fmt.Errorf("replay sweep expanded to %d points, want %d", len(st.Points), len(keys))
	}
	ops := make([]op, len(keys))
	var (
		nextIdx atomic.Int64
		wg      sync.WaitGroup
	)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(nextIdx.Add(1) - 1); i < len(ops); i = int(nextIdx.Add(1) - 1) {
				p := st.Points[i]
				o := op{id: fmt.Sprintf("replay-%d-%d", round, i), kind: "replay", due: t0, outcome: outcome{key: keys[i]}}
				if p.Status == api.StatusDone && p.Cached && p.ResultHash == keys[i] {
					o.outcome = f.fetch(withReq(ctx, o.id, 0), keys[i])
				}
				o.done, o.latency = true, time.Since(t0)
				ops[i] = o
			}
		}()
	}
	wg.Wait()
	return ops, time.Since(t0), nil
}

// tierShares attributes each corpus read of the main window to the tier
// that served it, from the inputs alone: a repeat is a memory hit; a first
// touch comes from local disk if the key is there, else the shared tier.
func tierShares(ops []op, onDisk map[string]bool) map[string]float64 {
	seen := map[string]bool{}
	n := map[string]float64{}
	total := 0.0
	for _, o := range ops {
		if o.kind != "read" {
			continue
		}
		total++
		switch {
		case seen[o.key]:
			n["mem"]++
		case onDisk[o.key]:
			n["disk"]++
		default:
			n["shared"]++
		}
		seen[o.key] = true
	}
	for k := range n {
		n[k] /= total
	}
	return n
}

// copyTree copies the regular files under src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if de.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		outF, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(outF, in); err != nil {
			outF.Close()
			return err
		}
		return outF.Close()
	})
}

// timedBackend records a span around every Get and Put of a blob backend,
// with the blob key as the span's req (attachBlobSpans later ties it to
// the read that caused it). It forwards RepairStats so the daemon's
// /metrics keeps its EC counters.
type timedBackend struct {
	blob.Backend
	tr   *tracer
	name string
}

// timed wraps b when tracing; untraced phases use b itself.
func timed(b blob.Backend, name string, tr *tracer) blob.Backend {
	if tr == nil {
		return b
	}
	return &timedBackend{Backend: b, tr: tr, name: name}
}

func (t *timedBackend) Get(ctx context.Context, key string) ([]byte, error) {
	sp := t.tr.start(t.name+".get", key, 0)
	defer sp.end()
	return t.Backend.Get(ctx, key)
}

func (t *timedBackend) Put(ctx context.Context, key string, payload []byte) error {
	sp := t.tr.start(t.name+".put", key, 0)
	defer sp.end()
	return t.Backend.Put(ctx, key, payload)
}

func (t *timedBackend) RepairStats() blob.RepairStats {
	if rs, ok := t.Backend.(blob.RepairStatter); ok {
		return rs.RepairStats()
	}
	return blob.RepairStats{}
}
