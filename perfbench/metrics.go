package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// spanPct is the p-th percentile of the durations of the spans named
// name, in unit.
func spanPct(spans []Span, name string, p float64, unit time.Duration) float64 {
	d := durations(spans, name)
	for i := range d {
		d[i] /= float64(unit)
	}
	return pct(d, p)
}

// perCall is the mean time per call of batched spans, in ns.
func perCall(spans []Span, name string, calls float64) float64 {
	return ratio(sum(durations(spans, name)), calls)
}

// layerMetrics computes every per-layer metric of a traced run.
func layerMetrics(ph *phaseOut, lr *ladderRun, spans []Span) map[string]float64 {
	v := map[string]float64{}
	n := func(name string) float64 { return float64(len(durations(spans, name))) }

	// workload, cache, mem: batched spans of exactly batch calls each,
	// except the last cache/mem batch of a cell, so count the calls.
	v["workload.next_ns"] = perCall(spans, "workload.next", lr.calls.next)
	v["cache.access_ns"] = perCall(spans, "cache.access", lr.calls.access)
	var hits, misses, instr, accesses float64
	for _, r := range lr.results {
		hits += float64(r.Cache.Hits[0])
		misses += float64(r.Cache.Misses[0])
		instr += float64(r.Instructions)
		accesses += r.AccessesPerInstr * float64(r.Instructions)
	}
	v["cache.llc_miss_rate"] = ratio(misses, hits+misses)
	v["mem.access_row_ns"] = perCall(spans, "mem.access_row", lr.calls.row)
	v["mem.accesses_per_instr"] = ratio(accesses, instr)

	// sim: per-cell runs, warmup alone, and the workload's warm-state reuse.
	v["sim.run_ms_p50"] = spanPct(spans, "sim.run", 50, time.Millisecond)
	v["sim.run_ms_p95"] = spanPct(spans, "sim.run", 95, time.Millisecond)
	v["sim.warmup_ms_p50"] = spanPct(spans, "sim.warmup", 50, time.Millisecond)
	v["sim.warmup_share"] = warmupShare(spans)
	v["sim.minstr_per_s"] = ratio(instr/1e6, sum(durations(spans, "sim.run"))/1e9)
	v["sim.runs"] = n("sim.run")
	v["sim.warm_reuse_share"] = warmReuse(ph.points)

	v["parallel.efficiency"] = ratio(sum(durations(spans, "sim.run"))/1e6, lr.gridCapMs)

	v["faultmodel.eol_ms_p50"] = spanPct(spans, "faultmodel.eol", 50, time.Millisecond)
	v["faultmodel.trials_per_s"] = ratio(float64(lr.eolTrials), sum(durations(spans, "faultmodel.eol"))/1e9)

	var execs, selfShares []float64
	for k, t := range ph.refMs {
		execs = append(execs, t)
		if g, ok := lr.gridMs[k]; ok {
			selfShares = append(selfShares, (t-g)/t)
		}
	}
	v["report.exec_ms_p50"] = median(execs)
	v["report.self_share"] = median(selfShares)
	v["report.matrix_share_points"] = matrixShare(ph.points)

	// jobqueue: exact waits from job timestamps, gauges from /metrics.
	v["jobqueue.wait_interactive_ms_p95"] = pct(ph.waits["interactive"], 95)
	v["jobqueue.wait_sweep_ms_p50"] = pct(ph.waits["sweep"], 50)
	if ph.scr != nil {
		v["jobqueue.depth_max"] = ph.scr.depthMax
		v["jobqueue.busy_share"] = ratio(ph.scr.busySum, float64(ph.scr.n))
		v["jobqueue.rejected"] = ph.scr.delta("eccsimd_rejected_full_total")
		hit := ph.scr.delta("eccsimd_cache_hits_total") + ph.scr.delta("eccsimd_cache_coalesced_total")
		v["resultcache.hit_ratio"] = ratio(hit, hit+ph.scr.delta("eccsimd_cache_misses_total"))
	}

	v["serve.submit_us_p50"] = spanPct(spans, "serve.submit", 50, time.Microsecond)
	v["serve.submit_us_p99"] = spanPct(spans, "serve.submit", 99, time.Microsecond)
	v["serve.result_us_p50"] = spanPct(spans, "serve.result", 50, time.Microsecond)
	v["serve.result_us_p99"] = spanPct(spans, "serve.result", 99, time.Microsecond)
	v["api.polls_per_job"] = ratio(float64(ph.polls), float64(ph.jobs))

	v["resultcache.load_index_ms"] = spanPct(spans, "resultcache.new", 50, time.Millisecond)
	v["resultcache.get_mem_us_p50"] = spanPct(spans, "resultcache.get_mem", 50, time.Microsecond)
	v["resultcache.get_disk_us_p50"] = spanPct(spans, "resultcache.get_disk", 50, time.Microsecond)
	v["resultcache.get_shared_us_p50"] = spanPct(spans, "resultcache.get_shared", 50, time.Microsecond)
	v["resultcache.miss_put_ms_p50"] = spanPct(spans, "resultcache.miss_put", 50, time.Millisecond)
	for _, t := range []string{"mem", "disk", "shared"} {
		v["resultcache.tier_share."+t] = ph.tiers[t]
	}

	v["blob.fs_get_us_p50"] = spanPct(spans, "blob.fs.get", 50, time.Microsecond)
	v["blob.fs_put_us_p50"] = spanPct(spans, "blob.fs.put", 50, time.Microsecond)
	v["blob.ec_get_us_p50"] = spanPct(spans, "blob.ec.get", 50, time.Microsecond)
	v["blob.ec_put_us_p50"] = spanPct(spans, "blob.ec.put", 50, time.Microsecond)
	v["blob.ec_get_degraded_us_p50"] = spanPct(spans, "blob.ec.get_degraded", 50, time.Microsecond)
	v["blob.shard_errors"] = ph.shardErrors

	lags := ph.lags
	if len(lags) == 0 {
		lags = ph.capLags
	}
	v["gen.lag_ms_p99"] = pct(append([]float64(nil), lags...), 99)

	v["max_rps_at_slo"] = ph.capRate
	v["coverage.sweep_point"] = sweepCoverage(ph)
	v["coverage.cached_get"] = getCoverage(ph.reads, spans)
	return v
}

// warmupShare is the median, over paired cells, of warmup-only time over
// full-run time of the same cell.
func warmupShare(spans []Span) float64 {
	var warm, full []Span
	for _, s := range spans {
		switch s.Name {
		case "sim.warmup":
			warm = append(warm, s)
		case "sim.run_paired":
			full = append(full, s)
		}
	}
	var shares []float64
	for i := range warm {
		if i < len(full) && full[i].Dur() > 0 {
			shares = append(shares, float64(warm[i].Dur())/float64(full[i].Dur()))
		}
	}
	return median(shares)
}

// warmReuse is the share of the workload's simulation cells whose warm
// state — class, LLC geometry, workload, seed, warmup length and traffic
// model — repeats an earlier cell's: the cells a warm-state checkpoint
// could restore instead of re-warming.
func warmReuse(pts []point) float64 {
	type warmKey struct {
		line, traffic int
		workload      string
		seed          int64
		warmup        int
	}
	seen := map[warmKey]bool{}
	total, reused := 0, 0
	for _, p := range pts {
		if p.Experiment != "schemeeval" {
			continue
		}
		for _, c := range cellsOf(p, "") {
			k := warmKey{c.cfg.Scheme.Base.Geometry().LineSize, int(c.cfg.Scheme.Traffic), c.cfg.Workload.Name, c.cfg.Seed, c.cfg.WarmupAccesses}
			total++
			if seen[k] {
				reused++
			}
			seen[k] = true
		}
	}
	return ratio(float64(reused), float64(total))
}

// matrixShare is the share of sim-backed points whose evaluation matrix —
// experiment, scheme, cycles, warmup and seed — another point of the
// workload also needs.
func matrixShare(pts []point) float64 {
	type mk struct {
		exp, scheme string
		cycles      float64
		warmup      int
		seed        int64
	}
	count := map[mk]int{}
	var keys []mk
	for _, p := range pts {
		if p.Experiment != "schemeeval" {
			continue
		}
		k := mk{p.Experiment, p.Params.Scheme, p.Params.Cycles, p.Params.Warmup, p.Params.Seed}
		count[k]++
		keys = append(keys, k)
	}
	shared := 0
	for _, k := range keys {
		if count[k] > 1 {
			shared++
		}
	}
	return ratio(float64(shared), float64(len(keys)))
}

// sweepCoverage is the ladder's mean time per sampled sweep point (a
// direct report.Executor run) over the daemon's time per sweep point (sweep
// wall ÷ points delivered). Cached sweeps have no compute to explain: 0.
func sweepCoverage(ph *phaseOut) float64 {
	if ph.sweep == nil {
		return 0
	}
	delivered, _ := pointLatencies(ph.sweep.ops, time.Hour)
	perPoint := ratio(ms(ph.sweep.wall), float64(len(delivered)))
	var ladder []float64
	for _, k := range ph.sweep.keys {
		if t, ok := ph.refMs[k]; ok {
			ladder = append(ladder, t)
		}
	}
	return ratio(sum(ladder)/float64(max(1, len(ladder))), perPoint)
}

// getCoverage is the share of cached-GET time that the layers' blocking
// steps explain: the self time of every span of the read in the generator,
// serve (HTTP round trips, daemon work included), resultcache and blob
// layers. The GET time is the read's latency (scheduled send → verified
// bytes) less the benchmark's own byte check, which follows the GET. The
// client's own work — request encoding, response decoding, hand-offs
// between steps — is what the layers leave out; so are the api.* wrapper
// spans, which would cover everything.
func getCoverage(reads []op, spans []Span) float64 {
	self := selfTimes(spans)
	inLayers := map[string]float64{}
	checks := map[string]float64{}
	for _, s := range spans {
		if s.Req == "" {
			continue
		}
		switch s.Layer() {
		case "gen", "serve", "resultcache", "blob":
			inLayers[s.Req] += float64(self[s.ID])
		case "check":
			checks[s.Req] += float64(self[s.ID])
		}
	}
	var covered, e2e float64
	for _, o := range reads {
		if o.done && o.ok {
			covered += inLayers[o.id]
			e2e += float64(o.latency) - checks[o.id]
		}
	}
	return ratio(covered, e2e)
}

// minCoverage is the share of end-to-end time the layers' blocking steps
// must explain. coverageChecks names the check each workload must pass.
const minCoverage = 0.9

var coverageChecks = map[string]string{
	"sweep-schemes": "coverage.sweep_point",
	"cached-reads":  "coverage.cached_get",
}

// coverageOK reports whether a traced run of workload passed its coverage
// check (true for a workload that has none).
func coverageOK(workload string, v map[string]float64) bool {
	name, ok := coverageChecks[workload]
	return !ok || v[name] >= minCoverage
}

// printTrace prints the traced run's self time per layer, the coverage
// checks and the workload properties to w.
func printTrace(w io.Writer, workload string, spans []Span, v map[string]float64) {
	self := layerSelf(spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "perfbench: %s traced run, self time by layer:\n", workload)
	for _, l := range layers {
		fmt.Fprintf(w, "  %-12s %10.1f ms\n", l, ms(self[l]))
	}
	for _, name := range []string{"coverage.sweep_point", "coverage.cached_get"} {
		status := "n/a"
		if coverageChecks[workload] == name {
			status = "pass"
			if !coverageOK(workload, v) {
				status = fmt.Sprintf("FAIL (< %.2f): run not correct", minCoverage)
			}
		}
		fmt.Fprintf(w, "  %s = %.3f %s\n", name, v[name], status)
	}
	fmt.Fprintf(w, "  properties: sim.warm_reuse_share=%.3f report.matrix_share_points=%.3f tier_share mem=%.3f disk=%.3f shared=%.3f\n",
		v["sim.warm_reuse_share"], v["report.matrix_share_points"],
		v["resultcache.tier_share.mem"], v["resultcache.tier_share.disk"], v["resultcache.tier_share.shared"])
}
