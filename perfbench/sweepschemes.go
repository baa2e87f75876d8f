package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"eccparity/internal/serve"
	"eccparity/internal/sim"
	"eccparity/internal/sim/report"
	"eccparity/pkg/api"
)

// sweep-schemes: one schemeeval sweep over every registered scheme (all
// three traffic models, both line sizes) × a cycles axis at one seed,
// submitted by a single client that watches the stream. Memory-only, cold
// cache: every point is a compute. README.md ("Assumed inputs") gives the
// reason for each constant.
const (
	sweepWarmup     = 3000
	sweepCyclesBase = 10000
	// sweepRate is the nominal points/s used to size the cycles axis to the
	// phase budget. It is a constant so that a seed and a budget always
	// give the same sweep; a slower daemon simply takes longer.
	sweepRate = 24.0
	// sweepShare of the phase budget is what the sweep is sized to fill.
	sweepShare = 0.85
)

func sweepSchemes(ctx context.Context, e env) (*phaseOut, error) {
	rng := rand.New(rand.NewSource(e.seed))
	schemes := sim.SchemeKeys()
	nCycles := max(1, int(e.budget.Seconds()*sweepShare*sweepRate/float64(len(schemes))+0.5))
	// The cycles axis is stratified: value i is drawn from the i-th step of
	// 2000 cycles, so seeds vary the points but not the sweep's total work.
	cycles := make([]float64, nCycles)
	for i := range cycles {
		cycles[i] = float64(sweepCyclesBase + 2000*i + 1000*rng.Intn(2))
	}
	seed := 1 + rng.Int63n(1<<30)

	var pts []point
	for _, sc := range schemes {
		for _, cy := range cycles {
			p, err := newPoint("schemeeval", report.Params{Scheme: sc, Cycles: cy, Warmup: sweepWarmup, Seed: seed})
			if err != nil {
				return nil, err
			}
			pts = append(pts, p)
		}
	}
	keys, err := keysOf(pts)
	if err != nil {
		return nil, err
	}
	// The references — and the ladder's per-point report.exec times — pair
	// schemes with cycles values in a seeded order that covers every scheme
	// and every cycles value at least once, so the sample's mean cost
	// matches the sweep's (a point's cost depends on its scheme and grows
	// with its cycles).
	var refIdx []int
	ps, pc := rng.Perm(len(schemes)), rng.Perm(len(cycles))
	for k := 0; k < max(len(schemes), len(cycles)); k++ {
		refIdx = append(refIdx, ps[k%len(schemes)]*len(cycles)+pc[k%len(cycles)])
	}
	refPts, checked := pick(pts, keys, refIdx)

	d, setup, err := bringUp(func() (serve.Options, error) {
		return serve.Options{QueueCap: len(pts) + 64, MaxSweepPoints: len(pts)}, nil
	}, e.tr)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	f := &fetcher{c: d.client, tr: e.tr, checked: checked}
	f.corrupt.Store(e.corrupt)
	out := &phaseOut{points: pts, waits: map[string][]float64{}}
	if e.tr != nil {
		if out.scr, err = startScraper(d, 50*time.Millisecond, jobWorkers); err != nil {
			return nil, err
		}
	}

	sr, err := watchSweep(ctx, f, api.SweepRequest{
		Base: api.SubmitRequest{Experiment: "schemeeval", Warmup: sweepWarmup, Seed: seed, Submitter: "sweep-schemes"},
		Axes: api.SweepAxes{Scheme: schemes, Cycles: cycles},
	}, pts, sweepDeadline(e.budget), nil)
	if err != nil {
		return nil, err
	}
	if out.scr != nil {
		out.scr.stop()
	}
	heap := heapMB()
	lat, in := pointLatencies(sr.ops, e.limit)
	done := len(lat)
	rate, capOps, capWrites := capacity(ctx, f, pts, keys, rng, e)

	refs, refMs, docs, err := computeRefs(ctx, refPts, e.tr)
	if err != nil {
		return nil, err
	}
	if err := addWriteRefs(ctx, refs, capWrites); err != nil {
		return nil, err
	}
	out.led = newLedger()
	out.led.settle(sr.ops, refs)
	out.led.settle(capOps, refs)
	out.sweep, out.refs, out.refMs, out.payloads = sr, refPts, refMs, docs
	out.reads, out.capRate = capOps, rate
	out.capLags = lagsOf(capOps)
	if e.tr != nil {
		out.waits["sweep"] = jobWaits(ctx, d.client, sr.jobIDs)
		out.waits["interactive"] = classProbe(ctx, f, api.PriorityInteractive, e.seed)
	}
	out.e2e = map[string]float64{
		"setup_s":            setup,
		"sweep_points_per_s": ratio(float64(done), sr.wall.Seconds()),
		"latency_p25_ms":     pct(lat, 25),
		"latency_p50_ms":     pct(lat, 50),
		"latency_p95_ms":     pct(lat, 95),
		"latency_p99_ms":     pct(lat, 99),
		"slo_attain":         ratio(float64(in), float64(len(sr.ops))),
		"heap_live_mb":       heap,
	}
	return out, nil
}

// jobWorkers is serve's default JobWorkers, which the benchmark keeps.
const jobWorkers = 2

// sweepDeadline bounds how long a phase's sweep may run before its
// undelivered points count as failures.
func sweepDeadline(budget time.Duration) time.Duration { return 3*budget + 30*time.Second }

func keysOf(pts []point) ([]string, error) {
	keys := make([]string, len(pts))
	for i, p := range pts {
		k, err := p.key()
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	return keys, nil
}

// pick returns the points at idx and the set of their addresses.
func pick(pts []point, keys []string, idx []int) ([]point, map[string]bool) {
	out := make([]point, 0, len(idx))
	set := map[string]bool{}
	for _, i := range idx {
		out = append(out, pts[i])
		set[keys[i]] = true
	}
	return out, set
}

func lagsOf(ops []op) []float64 {
	out := make([]float64, 0, len(ops))
	for _, o := range ops {
		out = append(out, ms(o.lag))
	}
	return out
}

// classProbe measures the queue wait of a scheduling class the workload
// itself never uses, so every jobqueue wait metric has a value: eight
// cheap analytic jobs of that class, after the measured window.
func classProbe(ctx context.Context, f *fetcher, class string, seed int64) []float64 {
	const n = 8
	base := 1_000_000_000 + seed*100
	if class == api.PrioritySweep {
		seeds := make([]int64, n)
		for i := range seeds {
			seeds[i] = base + int64(i)
		}
		st, err := f.c.SubmitSweep(ctx, api.SweepRequest{Base: api.SubmitRequest{Experiment: "fig1", Submitter: "probe"}, Axes: api.SweepAxes{Seed: seeds}})
		if err != nil {
			return nil
		}
		if _, err := f.c.WaitSweep(ctx, st.ID, 5*time.Second); err != nil {
			return nil
		}
		ids := make([]string, len(st.Points))
		for i, p := range st.Points {
			ids[i] = p.JobID
		}
		return jobWaits(ctx, f.c, ids)
	}
	var waits []float64
	for i := 0; i < n; i++ {
		p, err := newPoint("fig1", report.Params{Seed: base + int64(i)})
		if err != nil {
			return nil
		}
		k, err := p.key()
		if err != nil {
			return nil
		}
		o := computeRequest(f, p, k, fmt.Sprintf("probe-%d", i), "probe", class, time.Millisecond).fn(ctx)
		if o.job != "" {
			waits = append(waits, ms(o.wait))
		}
	}
	return waits
}
