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

// interactive-under-sweep: a long background fig8 sweep over a seed axis
// at sweep priority, sized to outlast the probes, while open-loop
// interactive probes — small schemeeval runs with unique seeds, rotating
// over the schemes — arrive at a fixed rate. README.md ("Assumed inputs")
// gives the source or the reason for each constant.
const (
	bgTrials = 2000
	// probeInterval is cmd/eccload's default gap between interactive
	// submissions.
	probeInterval = 150 * time.Millisecond
	probeCyc      = 5000
	probeWarm     = 1000
	probePoll     = 5 * time.Millisecond
	probeShare    = 0.8 // of the phase budget
	// The background sweep holds bgMargin times the points a daemon
	// running at bgRate points/s (about today's rate under the probes)
	// would finish in the probe window, so it outlasts the probes on a
	// daemon several times faster. The rest is canceled once the probes
	// are done. Both are constants, so a seed and a budget always give the
	// same sweep.
	bgRate   = 13.0
	bgMargin = 3.0
)

// probeRate is the probes' arrival rate (probes/s).
var probeRate = float64(time.Second) / float64(probeInterval)

func interactiveUnderSweep(ctx context.Context, e env) (*phaseOut, error) {
	rng := rand.New(rand.NewSource(e.seed))
	probeDur := time.Duration(float64(e.budget) * probeShare)
	nBg := int(probeDur.Seconds()*bgRate*bgMargin) + 1
	perm := rng.Perm(4 * nBg)
	bgSeeds := make([]int64, nBg)
	var bgPts []point
	for i := range bgSeeds {
		bgSeeds[i] = int64(1 + perm[i])
		p, err := newPoint("fig8", report.Params{Trials: bgTrials, Seed: bgSeeds[i]})
		if err != nil {
			return nil, err
		}
		bgPts = append(bgPts, p)
	}
	schemes := sim.SchemeKeys()
	// Every scheme gets as many probes as the others, so the seed's
	// rotation does not change the probes' total work.
	nProbe := int(probeRate * probeDur.Seconds())
	if nProbe >= len(schemes) {
		nProbe -= nProbe % len(schemes)
	}
	probeBase := 1 + rng.Int63n(1<<40)
	rot := rng.Intn(len(schemes))
	probePts := make([]point, nProbe)
	for i := range probePts {
		p, err := newPoint("schemeeval", report.Params{
			Scheme: schemes[(rot+i)%len(schemes)], Cycles: probeCyc, Warmup: probeWarm, Seed: probeBase + int64(i),
		})
		if err != nil {
			return nil, err
		}
		probePts[i] = p
	}
	bgKeys, err := keysOf(bgPts)
	if err != nil {
		return nil, err
	}
	probeKeys, err := keysOf(probePts)
	if err != nil {
		return nil, err
	}
	// Only the sampled background points the sweep delivers before it is
	// canceled are recomputed.
	bgSample := sample(rng, len(bgPts), 0.05, 2)
	_, bgChecked := pick(bgPts, bgKeys, bgSample)
	probeRefs, checked := pick(probePts, probeKeys, sample(rng, len(probePts), 0.2, 3))
	for k := range bgChecked {
		checked[k] = true
	}

	d, setup, err := bringUp(func() (serve.Options, error) {
		return serve.Options{QueueCap: nBg + nProbe + 64, MaxSweepPoints: nBg}, nil
	}, e.tr)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	f := &fetcher{c: d.client, tr: e.tr, checked: checked}
	f.corrupt.Store(e.corrupt)
	out := &phaseOut{points: append(append([]point(nil), bgPts...), probePts...), waits: map[string][]float64{}}
	if e.tr != nil {
		if out.scr, err = startScraper(d, 50*time.Millisecond, jobWorkers); err != nil {
			return nil, err
		}
	}

	type sweepResult struct {
		sr  *sweepRun
		err error
	}
	bgDone := make(chan sweepResult, 1)
	stop := make(chan struct{})
	go func() {
		sr, err := watchSweep(ctx, f, api.SweepRequest{
			Base: api.SubmitRequest{Experiment: "fig8", Trials: bgTrials, Submitter: "background"},
			Axes: api.SweepAxes{Seed: bgSeeds},
		}, bgPts, sweepDeadline(e.budget), stop)
		bgDone <- sweepResult{sr, err}
	}()
	// Let the sweep fill the queue before the first probe is due.
	time.Sleep(50 * time.Millisecond)
	polls0 := d.rt.polls.Load()
	sch := fixedRate(probeRate, probeDur)
	sch.n = nProbe
	probes := openLoop(ctx, sch, 10*time.Second, e.tr, func(i int) request {
		return computeRequest(f, probePts[i], probeKeys[i], fmt.Sprintf("probe-%d", i), "probe", api.PriorityInteractive, probePoll)
	})
	winEnd := time.Now()
	close(stop)
	out.polls, out.jobs = d.rt.polls.Load()-polls0, len(probes)
	bg := <-bgDone
	if bg.err != nil {
		return nil, bg.err
	}
	if out.scr != nil {
		out.scr.stop()
	}
	heap := heapMB()
	lat, in := pointLatencies(probes, e.limit)
	// The sweep's rate is taken over the probe window only: from the first
	// probe's due time until the last probe finished.
	winStart := winEnd
	if len(probes) > 0 {
		winStart = probes[0].due
	}
	inWindow := 0
	for _, o := range bg.sr.ops {
		if at := bg.sr.submit.Add(o.latency); o.done && o.ok && !at.Before(winStart) && !at.After(winEnd) {
			inWindow++
		}
	}
	// Points the benchmark canceled after the probes were never attempted;
	// every point the stream announced before that counts.
	bgOps, bgJobs := bg.sr.ops, bg.sr.jobIDs
	if bg.sr.stopped {
		bgOps, bgJobs = nil, nil
		for i, o := range bg.sr.ops {
			if o.done {
				bgOps = append(bgOps, o)
				bgJobs = append(bgJobs, bg.sr.jobIDs[i])
			}
		}
	}
	var bgRefs []point
	delivered := map[string]bool{}
	for _, o := range bgOps {
		delivered[o.key] = o.ok
	}
	for _, i := range bgSample {
		if delivered[bgKeys[i]] {
			bgRefs = append(bgRefs, bgPts[i])
		}
	}

	// The capacity ramp reads this phase's results: the delivered
	// background points and the probes.
	var all []point
	var allKeys []string
	for i, p := range bgPts {
		if delivered[bgKeys[i]] {
			all, allKeys = append(all, p), append(allKeys, bgKeys[i])
		}
	}
	all, allKeys = append(all, probePts...), append(allKeys, probeKeys...)
	rate, capOps, capWrites := capacity(ctx, f, all, allKeys, rng, e)

	refs, refMs, docs, err := computeRefs(ctx, append(bgRefs, probeRefs...), e.tr)
	if err != nil {
		return nil, err
	}
	if err := addWriteRefs(ctx, refs, capWrites); err != nil {
		return nil, err
	}
	out.led = newLedger()
	out.led.settle(bgOps, refs)
	out.led.settle(probes, refs)
	out.led.settle(capOps, refs)
	out.sweep, out.refs, out.refMs, out.payloads = bg.sr, append(bgRefs, probeRefs...), refMs, docs
	out.reads, out.capRate = capOps, rate
	out.lags, out.capLags = lagsOf(probes), lagsOf(capOps)
	if e.tr != nil {
		out.waits["sweep"] = jobWaits(ctx, d.client, bgJobs)
		for _, o := range probes {
			if o.job != "" {
				out.waits["interactive"] = append(out.waits["interactive"], ms(o.wait))
			}
		}
	}
	out.e2e = map[string]float64{
		"setup_s":            setup,
		"sweep_points_per_s": ratio(float64(inWindow), winEnd.Sub(winStart).Seconds()),
		"latency_p25_ms":     pct(lat, 25),
		"latency_p50_ms":     pct(lat, 50),
		"latency_p95_ms":     pct(lat, 95),
		"latency_p99_ms":     pct(lat, 99),
		"slo_attain":         ratio(float64(in), float64(len(probes))),
		"heap_live_mb":       heap,
	}
	return out, nil
}
