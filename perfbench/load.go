package main

import (
	"context"
	"math"
	"sync"
	"time"
)

// outcome is what one request reports back to the load generator.
type outcome struct {
	ok  bool
	key string // result address the request read ("" for none)
	sha string // SHA-256 of the bytes received
	// job is set when the request ran a job: its scheduling class and how
	// long it waited in the queue (Started − Created).
	job  string
	wait time.Duration
}

// op is one finished open-loop request, timed from its scheduled send time.
type op struct {
	id      string // request id shared by the request's spans
	kind    string
	due     time.Time
	lag     time.Duration // how late the generator sent it
	latency time.Duration // due → verified bytes (or failure)
	done    bool          // finished before the run's deadline
	outcome
}

// request is one request of a load mix: kind names it, fn performs it.
type request struct {
	id   string
	kind string
	fn   func(ctx context.Context) outcome
}

// schedule says when request i is due, as an offset from the start, and
// how many requests there are. stop, when set, is asked before every send
// with the number of requests still outstanding; true ends the window.
type schedule struct {
	n     int
	dueAt func(i int) time.Duration
	stop  func(i, inflight int) bool
}

// fixedRate sends at rate for dur.
func fixedRate(rate float64, dur time.Duration) schedule {
	return schedule{
		n:     int(math.Floor(rate * dur.Seconds())),
		dueAt: func(i int) time.Duration { return time.Duration(float64(i) / rate * float64(time.Second)) },
	}
}

// openLoop sends next(i) when it falls due, regardless of how many earlier
// requests are still outstanding, then waits up to grace for stragglers. A
// request still running after that counts as not done. It returns the ops
// in send order.
func openLoop(ctx context.Context, sch schedule, grace time.Duration, tr *tracer, next func(i int) request) []op {
	ops := make([]op, 0, sch.n)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		inflight int
	)
	reqCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now()
	for i := 0; i < sch.n; i++ {
		due := start.Add(sch.dueAt(i))
		if d := time.Until(due); d > 0 {
			sleep(d)
		}
		mu.Lock()
		if sch.stop != nil && sch.stop(i, inflight) {
			mu.Unlock()
			break
		}
		inflight++
		r := next(i)
		ops = append(ops, op{id: r.id, kind: r.kind, due: due})
		mu.Unlock()
		wg.Add(1)
		go func(i int, r request) {
			defer wg.Done()
			// The request leaves when its goroutine runs: the lag covers the
			// generator's sleep and the scheduler's start-up delay.
			sent := time.Now()
			o := r.fn(reqCtx)
			end := time.Now()
			tr.record("gen.lag", r.id, due, sent) // off the request's path
			mu.Lock()
			defer mu.Unlock()
			inflight--
			ops[i].lag = sent.Sub(due)
			ops[i].outcome = o
			ops[i].latency = end.Sub(due)
			ops[i].done = true
		}(len(ops)-1, r)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(time.Until(start.Add(sch.dueAt(sch.n))) + grace):
		cancel()
		<-finished
	}
	// Requests the grace period cut off are failures, however they ended.
	cutoff := sch.dueAt(sch.n) + grace
	for i := range ops {
		if ops[i].done && ops[i].due.Sub(start)+ops[i].latency > cutoff {
			ops[i].done = false
		}
	}
	return ops
}

// windowPct is a percentile that stays steady on a noisy host: the ops are
// cut, in send order, into consecutive windows of at least minWindow
// requests, and the median of the windows' percentiles is returned. A
// failed op counts as infinitely slow.
func windowPct(ops []op, p float64, minWindow int) float64 {
	k := max(1, len(ops)/minWindow)
	var per []float64
	for w := 0; w < k; w++ {
		part := ops[w*len(ops)/k : (w+1)*len(ops)/k]
		lat := make([]float64, 0, len(part))
		for _, o := range part {
			if o.done && o.ok {
				lat = append(lat, ms(o.latency))
			} else {
				lat = append(lat, math.Inf(1))
			}
		}
		per = append(per, pct(lat, p))
	}
	return median(per)
}

// rampWindow is the number of consecutive requests that judge one point of
// the capacity ramp. latencyWindow is the smallest window windowPct cuts a
// run into: short enough that a run yields dozens of windows, so the
// median steps over the host's multi-second stalls.
const (
	rampWindow    = 2000
	latencyWindow = 200
)

// maxInflight ends a capacity ramp whatever the rate: past it the backlog
// has certainly grown, and more goroutines would only cost memory.
const maxInflight = 2000

// maxRate finds the highest offered rate whose p99 latency meets limit. It
// offers an exponential ramp from lo towards hi over dur, stopping early
// once the requests outstanding imply latencies far past the limit. The
// ramp is judged in overlapping windows of rampWindow sends, each giving a
// (rate, windowPct p99) point; failures count as infinitely slow, so errors, a
// growing backlog and a late generator all read as over the limit. A
// monotone (isotonic) fit through the points absorbs single-window stalls,
// and the answer is the rate where the fit crosses the limit, interpolated
// between points. The request counter keeps running, so the ramp draws
// fresh requests from the same mix. It returns the rate and every op sent.
//
// The ramp is not traced: at thousands of requests a second its spans
// would fill the heap, and the collector's extra work would slow the
// ladder that follows it.
func maxRate(ctx context.Context, lo, hi float64, dur, limit time.Duration, tr *tracer, next func(i int) request) (float64, []op) {
	defer tr.pause()()
	T := dur.Seconds()
	g := math.Log(hi / lo)
	rateAt := func(t time.Duration) float64 { return lo * math.Exp(g*t.Seconds()/T) }
	// Requests due by time t: ∫ lo·e^(g·s/T) ds = lo·T/g·(e^(g·t/T) − 1).
	sch := schedule{
		n: int(lo * T / g * (hi/lo - 1)),
		dueAt: func(i int) time.Duration {
			return time.Duration(T / g * math.Log(1+float64(i)*g/(lo*T)) * float64(time.Second))
		},
	}
	var start time.Time
	sch.stop = func(i, inflight int) bool {
		if i == 0 {
			start = time.Now()
			return false
		}
		// Outstanding work worth 4× the limit at the current rate.
		return inflight > maxInflight || float64(inflight) > 4*limit.Seconds()*rateAt(time.Since(start))+50
	}
	ops := openLoop(ctx, sch, 10*time.Second, nil, next)
	if len(ops) == 0 {
		return 0, ops
	}
	w := min(rampWindow, len(ops))
	var rates, p99s []float64
	for a := 0; a+w <= len(ops); a += max(1, w/4) {
		part := ops[a : a+w]
		rates = append(rates, rateAt(part[w/2].due.Sub(ops[0].due)))
		p99s = append(p99s, windowPct(part, 99, latencyWindow))
	}
	fit := isotonic(p99s)
	lim := ms(limit)
	for j := range fit {
		if fit[j] <= lim {
			continue
		}
		if j == 0 {
			return 0, ops
		}
		a, b := fit[j-1], fit[j]
		if math.IsInf(b, 1) {
			return rates[j-1], ops
		}
		return rates[j-1] + (rates[j]-rates[j-1])*(lim-a)/(b-a), ops
	}
	return rates[len(rates)-1], ops
}

// isotonic returns the non-decreasing least-squares fit of ys (pool
// adjacent violators). An infinite value pools to infinity.
func isotonic(ys []float64) []float64 {
	type block struct {
		sum float64
		n   int
	}
	var bs []block
	for _, y := range ys {
		bs = append(bs, block{y, 1})
		for len(bs) > 1 {
			a, b := bs[len(bs)-2], bs[len(bs)-1]
			if a.sum/float64(a.n) <= b.sum/float64(b.n) {
				break
			}
			bs = append(bs[:len(bs)-2], block{a.sum + b.sum, a.n + b.n})
		}
	}
	out := make([]float64, 0, len(ys))
	for _, b := range bs {
		for i := 0; i < b.n; i++ {
			out = append(out, b.sum/float64(b.n))
		}
	}
	return out
}
