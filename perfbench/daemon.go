package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eccparity/internal/serve"
	"eccparity/pkg/api"
)

// daemon is one in-process eccsimd behind a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *api.Client
	rt     *countingTransport
}

// startDaemon opens the daemon's storage (build), constructs it with
// serve.New, serves it on a fresh loopback port and waits for the first
// healthy /healthz. The returned duration covers all of that — the
// workload's setup time.
func startDaemon(build func() (serve.Options, error), tr *tracer) (*daemon, time.Duration, error) {
	t0 := time.Now()
	opts, err := build()
	if err != nil {
		return nil, 0, err
	}
	srv, err := serve.New(opts)
	if err != nil {
		return nil, 0, fmt.Errorf("serve.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{})}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	d.base = "http://" + ln.Addr().String()
	d.rt = newCountingTransport(tr)
	d.client = &api.Client{BaseURL: d.base, HTTPClient: &http.Client{Transport: d.rt}}
	for {
		resp, err := d.client.HTTPClient.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 30*time.Second {
			d.stop()
			return nil, 0, errors.New("daemon never became healthy")
		}
		time.Sleep(time.Millisecond)
	}
	return d, time.Since(t0), nil
}

// stop shuts the listener, drains the queue (which flushes write-behind
// publishes to the shared tier) and waits for the serve goroutine, so the
// daemon's directories can be removed safely afterwards.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // a forced close after the timeout is fine here
	<-d.served
	_ = d.srv.Drain(ctx) // stragglers past the timeout are canceled by Drain
	d.rt.inner.CloseIdleConnections()
}

// countingTransport is the benchmark's http.RoundTripper: it caps
// connections at the CPU count, counts requests by route, and — when
// tracing — records one span per round trip.
type countingTransport struct {
	inner *http.Transport
	tr    *tracer
	polls atomic.Int64 // GET /v1/jobs/{id}
}

func newCountingTransport(tr *tracer) *countingTransport {
	n := runtime.NumCPU()
	return &countingTransport{tr: tr, inner: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		IdleConnTimeout:     time.Minute,
	}}
}

// route names a request for its span: serve.submit, serve.result, ...
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && (p == "/v1/experiments" || p == "/v1/sweeps"):
		return "serve.submit"
	case strings.HasPrefix(p, "/v1/results/"):
		return "serve.result"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "serve.poll"
	case strings.HasPrefix(p, "/v1/sweeps/"):
		return "serve.sweep"
	default:
		return "serve.other"
	}
}

type reqIDKey struct{}

// withReq tags ctx with a request id and parent span for the transport.
func withReq(ctx context.Context, req string, parent int64) context.Context {
	return context.WithValue(ctx, reqIDKey{}, reqTag{req, parent})
}

type reqTag struct {
	id     string
	parent int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	name := route(r)
	if name == "serve.poll" {
		c.polls.Add(1)
	}
	tag, _ := r.Context().Value(reqIDKey{}).(reqTag)
	sp := c.tr.start(name, tag.id, tag.parent)
	resp, err := c.inner.RoundTrip(r)
	if err != nil || sp == nil || name == "serve.sweep" {
		// Streams stay open for the whole sweep: their spans would only
		// measure the sweep, so they are not recorded.
		return resp, err
	}
	// The round trip ends when the body has been read.
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	sp   *openSpan
	once sync.Once
}

func (b *spanBody) Close() error {
	b.once.Do(func() { b.sp.end() })
	return b.ReadCloser.Close()
}

// scrape fetches /metrics and returns every unlabelled sample plus the
// labelled ones under their full "name{labels}" text.
func scrape(ctx context.Context, d *daemon) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.rt.inner.RoundTrip(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scraper polls /metrics on an interval until stopped, keeping the first
// and last scrape and the running maxima/means of the queue gauges.
type scraper struct {
	d        *daemon
	workers  int
	stopCh   chan struct{}
	finished chan struct{}

	mu          sync.Mutex
	first, last map[string]float64
	depthMax    float64
	busySum     float64
	n           int
}

func startScraper(d *daemon, every time.Duration, workers int) (*scraper, error) {
	first, err := scrape(context.Background(), d)
	if err != nil {
		return nil, err
	}
	s := &scraper{d: d, workers: workers, stopCh: make(chan struct{}), finished: make(chan struct{}), first: first, last: first}
	go func() {
		defer close(s.finished)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-t.C:
			}
			m, err := scrape(context.Background(), d)
			if err != nil {
				continue // a missed sample only thins the gauge series
			}
			s.mu.Lock()
			s.last = m
			s.depthMax = max(s.depthMax, m["eccsimd_queue_depth"])
			s.busySum += m["eccsimd_jobs_inflight"] / float64(s.workers)
			s.n++
			s.mu.Unlock()
		}
	}()
	return s, nil
}

// stop ends the polling and takes a final scrape for the counter deltas.
func (s *scraper) stop() {
	close(s.stopCh)
	<-s.finished
	if m, err := scrape(context.Background(), s.d); err == nil {
		s.last = m
	}
}

func (s *scraper) delta(name string) float64 { return s.last[name] - s.first[name] }
