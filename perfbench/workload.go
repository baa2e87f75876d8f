package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"eccparity/internal/serve"
	"eccparity/internal/sim/report"
	"eccparity/pkg/api"
)

// env is what one measured phase of a workload gets.
type env struct {
	seed      int64
	budget    time.Duration // the phase's measured time
	limit     time.Duration // the workload's latency limit (BENCHMARK.json)
	readLimit time.Duration // the cached-read limit max_rps_at_slo is held to
	ramp      time.Duration // length of the max_rps_at_slo ramp (0: none)
	dir       string        // scratch directory, removed after the phase
	runDir    string        // scratch directory shared by the run's phases
	shared    *runState     // state the run's phases share
	tr        *tracer       // nil: untraced
	corrupt   bool          // self-test: corrupt one checked result
}

// runState is what the phases of one run share: the cached-reads corpus,
// built by the first phase that needs it.
type runState struct {
	corpus *corpus
}

// phaseOut is a phase's measurements plus the inputs the layer ladder
// replays.
type phaseOut struct {
	led      *ledger
	e2e      map[string]float64
	lags     []float64 // ms, sends of the main open-loop window
	capLags  []float64 // ms, sends of the capacity search
	refs     []point   // points recomputed as references
	refMs    map[string]float64
	points   []point           // every point the phase asked for
	payloads map[string][]byte // a sample of result documents by address
	waits    map[string][]float64
	reads    []op // cached reads, for the coverage check
	scr      *scraper
	sweep    *sweepRun // the phase's computed sweep, if any
	polls    int64
	jobs     int
	tiers    map[string]float64 // result-cache tier shares by input
	capRate  float64            // max_rps_at_slo (0 without a ramp)
	diskDir  string             // cached-reads: the daemon's disk tier
	// shardErrors counts shard failures the daemon's erasure-coded tier
	// absorbed (0 without a shared tier).
	shardErrors float64
}

// workloadFn runs one phase of a workload.
type workloadFn func(ctx context.Context, e env) (*phaseOut, error)

var workloads = map[string]workloadFn{
	"sweep-schemes":           sweepSchemes,
	"interactive-under-sweep": interactiveUnderSweep,
	"cached-reads":            cachedReads,
}

// setupRuns is how many times a phase builds its daemon; setup_s is the
// median and the last daemon serves the phase. The first dozen or so
// set-ups of a process run cold and slow, so the count is high enough for
// the median to fall among the steady ones.
const setupRuns = 101

// bringUp builds the daemon setupRuns times and keeps the last one.
func bringUp(build func() (serve.Options, error), tr *tracer) (*daemon, float64, error) {
	var setups []float64
	var d *daemon
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			d.stop()
		}
		var (
			dur time.Duration
			err error
		)
		d, dur, err = startDaemon(build, tr)
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, dur.Seconds())
	}
	return d, median(setups), nil
}

// heapMB forces a collection and returns the live heap in MB. The second
// collection frees what the first moved into sync.Pool victim caches.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// sample picks about frac of n indexes (at least lo, at most n) with rng.
func sample(rng *rand.Rand, n int, frac float64, lo int) []int {
	k := min(n, max(lo, int(float64(n)*frac+0.5)))
	idx := rng.Perm(n)[:k]
	sort.Ints(idx)
	return idx
}

// computeRefs recomputes points directly, outside any timed window, and
// returns their fingerprints. When traced, each run is a report.exec span.
func computeRefs(ctx context.Context, pts []point, tr *tracer) (map[string]string, map[string]float64, map[string][]byte, error) {
	refs := map[string]string{}
	took := map[string]float64{}
	docs := map[string][]byte{}
	x := report.NewExecutor(nil)
	for _, p := range pts {
		k, err := p.key()
		if err != nil {
			return nil, nil, nil, err
		}
		sp := tr.start("report.exec", k, 0)
		t0 := time.Now()
		_, b, err := reference(ctx, x, p)
		took[k] = ms(time.Since(t0))
		sp.end()
		if err != nil {
			return nil, nil, nil, err
		}
		refs[k] = shaHex(b)
		docs[k] = b
	}
	return refs, took, docs, nil
}

// addWriteRefs adds the fingerprints of a capacity ramp's writes to refs.
// They are checked like every other result but are not report samples.
func addWriteRefs(ctx context.Context, refs map[string]string, writes []point) error {
	wr, _, _, err := computeRefs(ctx, writes, nil)
	for k, v := range wr {
		refs[k] = v
	}
	return err
}

// cachedRead asks for an already-computed point the way a client does:
// submit (a cache hit answers 200 with the address) then fetch the bytes.
func cachedRead(f *fetcher, p point, key, id string) request {
	return request{id: id, kind: "read", fn: func(ctx context.Context) outcome {
		sp := f.tr.start("api.submit", id, 0)
		sr, err := f.c.Submit(withReq(ctx, id, sp.id()), p.submit(api.PriorityInteractive, "reader"))
		sp.end()
		ctx = withReq(ctx, id, 0)
		if err != nil || sr.ResultHash != key {
			return outcome{key: key}
		}
		if !sr.Cached {
			// Not a cached read after all: wait for the compute.
			if js, err := f.c.Wait(ctx, sr.JobID, 2*time.Millisecond); err != nil || js.Status != api.StatusDone {
				return outcome{key: key}
			}
		}
		return f.fetch(ctx, key)
	}}
}

// computeRequest submits a point that is not cached yet, polls its job and
// fetches the result.
func computeRequest(f *fetcher, p point, key, id, kind, priority string, poll time.Duration) request {
	return request{id: id, kind: kind, fn: func(ctx context.Context) outcome {
		ctx = withReq(ctx, id, 0)
		sr, err := f.c.Submit(ctx, p.submit(priority, kind))
		if err != nil || sr.ResultHash != key {
			return outcome{key: key}
		}
		var js api.JobStatus
		if !sr.Cached {
			if js, err = f.c.Wait(ctx, sr.JobID, poll); err != nil || js.Status != api.StatusDone {
				return outcome{key: key}
			}
		}
		o := f.fetch(ctx, key)
		if js.Started != nil {
			o.job, o.wait = priority, js.Started.Sub(js.Created)
		}
		return o
	}}
}

// mix draws the cached-reads request mix: reads of already-computed points
// chosen by pick, and a writeShare of new-seed cheap computes that persist
// and publish. It is called from one goroutine (the load generator).
type mix struct {
	f         *fetcher
	pts       []point
	keys      []string
	pick      func() int
	rng       *rand.Rand
	prefix    string
	writeBase int64
	writes    []point // every write drawn, in order
	seq       int     // request ids stay unique across windows
}

func newMix(f *fetcher, pts []point, keys []string, rng *rand.Rand, prefix string, pick func() int) *mix {
	if pick == nil {
		pick = func() int { return rng.Intn(len(pts)) }
	}
	return &mix{f: f, pts: pts, keys: keys, pick: pick, rng: rng, prefix: prefix, writeBase: 1 + rng.Int63n(1<<40)}
}

func (m *mix) next(int) request {
	m.seq++
	id := fmt.Sprintf("%s-%d", m.prefix, m.seq)
	if m.rng.Float64() < writeShare {
		p, err := newPoint(writeExperiment, report.Params{Trials: writeTrials, Seed: m.writeBase + int64(len(m.writes))})
		if err != nil {
			panic(err) // a fixed, registered experiment always normalizes
		}
		k, err := p.key()
		if err != nil {
			panic(err) // hashing a params struct cannot fail
		}
		m.writes = append(m.writes, p)
		return computeRequest(m.f, p, k, id, "write", api.PriorityInteractive, time.Millisecond)
	}
	j := m.pick()
	return cachedRead(m.f, m.pts[j], m.keys[j], id)
}

// capacity finds max_rps_at_slo for a workload that is not cached-reads:
// the cached-reads mix (writes included) over the workload's own results,
// drawn uniformly. It returns the rate, the ops and the writes to check;
// a phase without a ramp (e.ramp 0) measures nothing.
func capacity(ctx context.Context, f *fetcher, pts []point, keys []string, rng *rand.Rand, e env) (float64, []op, []point) {
	if e.ramp == 0 {
		return 0, nil, nil
	}
	m := newMix(f, pts, keys, rng, "cap", nil)
	rate, ops := maxRate(ctx, searchLo, searchHi, e.ramp, e.readLimit, e.tr, m.next)
	return rate, ops, m.writes
}

// The max_rps_at_slo ramp's bounds (requests/s).
const (
	searchLo = 150
	searchHi = 40000
)

// sweepRun is one sweep watched to completion over the streaming API.
type sweepRun struct {
	points []point
	keys   []string
	jobIDs []string
	ops    []op
	wall   time.Duration // submit → last point delivered
	submit time.Time
	// stopped is set when the watcher was told to stop: the points it had
	// not seen by then were canceled by the benchmark, not failed.
	stopped bool
}

// errStopped ends a sweep watch that its caller no longer needs.
var errStopped = errors.New("sweep watch stopped")

// watchSweep submits req, checks the server expanded it to want (same
// addresses, same order), and fetches every point's result as the stream
// announces it. Points not delivered before deadline are failures. Closing
// stop (nil: never) ends the watch at the next point the stream announces
// and cancels the rest of the sweep.
func watchSweep(ctx context.Context, f *fetcher, req api.SweepRequest, want []point, deadline time.Duration, stop <-chan struct{}) (*sweepRun, error) {
	sr := &sweepRun{points: want}
	for _, p := range want {
		k, err := p.key()
		if err != nil {
			return nil, err
		}
		sr.keys = append(sr.keys, k)
	}
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	sr.submit = time.Now()
	st, err := f.c.SubmitSweep(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("submit sweep: %w", err)
	}
	if len(st.Points) != len(want) {
		return nil, fmt.Errorf("sweep expanded to %d points, want %d", len(st.Points), len(want))
	}
	sr.ops = make([]op, len(want))
	sr.jobIDs = make([]string, len(want))
	for i, p := range st.Points {
		sr.ops[i] = op{id: fmt.Sprintf("point-%d", i), kind: "point", due: sr.submit, outcome: outcome{key: sr.keys[i]}}
		sr.jobIDs[i] = p.JobID
		if p.ResultHash != sr.keys[i] {
			// The daemon addressed this point differently: count it failed.
			sr.ops[i].done = true
		}
	}
	var last time.Time
	_, err = f.c.WatchSweep(ctx, st.ID, time.Minute, func(p api.SweepPoint) error {
		select {
		case <-stop:
			return errStopped
		default:
		}
		o := &sr.ops[p.Index]
		if o.done {
			return nil
		}
		o.done = true
		if p.Status == api.StatusDone {
			o.outcome = f.fetch(withReq(ctx, o.id, 0), sr.keys[p.Index])
		}
		last = time.Now()
		o.latency = last.Sub(sr.submit)
		return nil
	})
	sr.stopped = errors.Is(err, errStopped)
	if err != nil && !sr.stopped && !errors.Is(err, context.DeadlineExceeded) {
		return nil, fmt.Errorf("watch sweep: %w", err)
	}
	if err != nil {
		// Stopped or out of time: cancel the rest so the daemon drains
		// quickly.
		_, _ = f.c.CancelSweep(context.Background(), st.ID)
	}
	sr.wall = last.Sub(sr.submit)
	return sr, nil
}

// pointLatencies returns the delivered points' latencies in ms and how
// many arrived within limit.
func pointLatencies(ops []op, limit time.Duration) ([]float64, int) {
	var lat []float64
	in := 0
	for _, o := range ops {
		if o.done && o.ok {
			lat = append(lat, ms(o.latency))
			if o.latency <= limit {
				in++
			}
		}
	}
	return lat, in
}

// jobWaits reads the queue wait of every job id after the phase.
func jobWaits(ctx context.Context, c *api.Client, ids []string) []float64 {
	var out []float64
	for _, id := range ids {
		if id == "" {
			continue
		}
		js, err := c.Job(ctx, id)
		if err != nil || js.Started == nil {
			continue
		}
		out = append(out, ms(js.Started.Sub(js.Created)))
	}
	return out
}
