// Command perfbench is the repository benchmark: it runs one named
// workload against an in-process eccsimd (serve.New behind a loopback
// listener), checks every result it receives, and prints one JSON line of
// metrics. With -trace 1 it runs the workload untraced and traced, then
// drives each layer's public call directly with the workload's inputs, and
// prints the per-layer metrics instead; the spans go to a file.
//
//	bash perfbench/run.sh --workload cached-reads --seed 3 --seconds 20 --trace 0
//
// The metric names, units and the workloads' latency limits come from
// BENCHMARK.json in the working directory. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"time"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

var limitRE = regexp.MustCompile(`limit (\d+) ms`)

// limit returns a workload's latency limit, stated once in its "why".
func (s *benchSpec) limit(workload string) (time.Duration, error) {
	for _, w := range s.Workloads {
		if w.Name != workload {
			continue
		}
		m := limitRE.FindStringSubmatch(w.Why)
		if m == nil {
			return 0, fmt.Errorf("BENCHMARK.json: workload %q states no \"limit <n> ms\"", workload)
		}
		n, _ := strconv.Atoi(m[1]) // the pattern admits digits only
		return time.Duration(n) * time.Millisecond, nil
	}
	return 0, fmt.Errorf("BENCHMARK.json: no workload %q", workload)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	corrupt  bool   // self-test: corrupt one checked result
	out      string // build/scratch directory (spans, daemon dirs)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for spans and daemon scratch space")
	flag.Parse()
	o.trace = trace == 1

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(context.Background(), spec, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// The trace run splits its budget: an untraced phase, a traced phase of
// the same length (their difference is the tracing overhead), then the
// capacity ramp for max_rps_at_slo, which only the traced phase runs, on
// rampShare of the budget, then the ladder.
const (
	tracePhaseShare = 0.35
	rampShare       = 0.3
)

func run(ctx context.Context, spec *benchSpec, o options) (*result, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	limit, err := spec.limit(o.workload)
	if err != nil {
		return nil, err
	}
	readLimit, err := spec.limit("cached-reads")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	budget := time.Duration(o.seconds * float64(time.Second))
	e := env{seed: o.seed, budget: budget, limit: limit, readLimit: readLimit, runDir: runDir, corrupt: o.corrupt, shared: &runState{}}

	phase := func(e env, name string) (*phaseOut, error) {
		e.dir = filepath.Join(runDir, name)
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return nil, err
		}
		return fn(ctx, e)
	}

	if !o.trace {
		ph, err := phase(e, "phase")
		if err != nil {
			return nil, err
		}
		res := &result{Attempted: ph.led.attempted, Failed: ph.led.failed, Metrics: map[string]metric{}}
		res.Correct = ph.led.mismatched == 0 && validLag(ph, limit)
		return res, fill(res, spec.EndToEnd, ph.e2e)
	}

	e.budget = time.Duration(float64(budget) * tracePhaseShare)
	plain, err := phase(e, "untraced")
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	e.tr = tr
	e.corrupt = false
	e.ramp = time.Duration(float64(budget) * rampShare)
	traced, err := phase(e, "traced")
	if err != nil {
		return nil, err
	}
	e.dir = filepath.Join(runDir, "traced")
	lr, err := runLadder(ctx, e, traced, tr)
	if err != nil {
		return nil, err
	}
	spans := attachBlobSpans(tr.snapshot(), traced.reads)
	vals := layerMetrics(traced, lr, spans)
	for _, m := range spec.EndToEnd {
		vals["trace_overhead."+m.Name] = traced.e2e[m.Name] - plain.e2e[m.Name]
	}
	// The median and the tail percentiles drift with the host too much to
	// hold a bound (see README.md); they are reported here, from the
	// untraced phase.
	for _, k := range []string{"latency_p50_ms", "latency_p95_ms", "latency_p99_ms"} {
		vals[k] = plain.e2e[k]
	}
	same := sameHashes(plain.led.seen, traced.led.seen)
	if !same {
		fmt.Fprintln(os.Stderr, "perfbench: traced and untraced runs returned different bytes for the same address")
	}
	path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	if err := writeSpans(path, o.workload, o.seed, spans); err != nil {
		return nil, err
	}
	printTrace(os.Stderr, o.workload, spans, vals)
	res := &result{
		Attempted: plain.led.attempted + traced.led.attempted,
		Failed:    plain.led.failed + traced.led.failed,
		Metrics:   map[string]metric{},
	}
	res.Correct = plain.led.mismatched == 0 && traced.led.mismatched == 0 && same &&
		validLag(plain, limit) && validLag(traced, limit) && coverageOK(o.workload, vals)
	return res, fill(res, spec.PerLayer, vals)
}

// validLag reports whether the generator kept its schedule: a run whose
// sends ran late by more than half the latency limit at p99 did not offer
// the load it claims, and is invalid.
func validLag(ph *phaseOut, limit time.Duration) bool {
	if p := pct(append([]float64(nil), ph.lags...), 99); p > ms(limit)/2 {
		fmt.Fprintf(os.Stderr, "perfbench: run invalid: generator lag p99 %.2f ms exceeds %.2f ms\n", p, ms(limit)/2)
		return false
	}
	return true
}

// fill copies the named metrics into res, failing on any the run did not
// measure.
func fill(res *result, specs []metricSpec, vals map[string]float64) error {
	for _, m := range specs {
		v, ok := vals[m.Name]
		if !ok {
			return fmt.Errorf("metric %q was not measured", m.Name)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return nil
}

// sameHashes reports whether every address both runs read has the same
// fingerprint in each.
func sameHashes(a, b map[string]string) bool {
	for k, v := range a {
		if w, ok := b[k]; ok && w != v {
			return false
		}
	}
	return true
}
