package main

import (
	"context"
	"math"
	"testing"
	"time"

	"eccparity/internal/raceflag"
)

// runTiny runs one workload at a tiny scale. A traced run gets more time:
// its coverage check compares two timings of a sweep, and on a small host
// the jitter of sub-second sweeps alone can push it under the threshold.
func runTiny(t *testing.T, spec *benchSpec, workload string, trace, corrupt bool) *result {
	t.Helper()
	seconds := 2.0
	if trace {
		seconds = 8
	}
	res, err := run(context.Background(), spec, options{
		workload: workload, seed: 7, seconds: seconds, trace: trace, corrupt: corrupt, out: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s (trace=%v): %v", workload, trace, err)
	}
	return res
}

// TestEveryWorkloadEmitsEveryMetric runs each workload of BENCHMARK.json
// untraced and traced and checks that every metric it names comes out with
// its unit, that every result matched its reference, and that nothing
// failed.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not implement", w.Name)
			continue
		}
		if _, err := spec.limit(w.Name); err != nil {
			t.Error(err)
		}
		for _, trace := range []bool{false, true} {
			res := runTiny(t, spec, w.Name, trace, false)
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.Name, trace, m.Name, got.Value)
				case !trace && got.Value == 0 && !(raceflag.Enabled && m.Name == "max_rps_at_slo"):
					// Under the race detector the daemon may be too slow
					// for any rate to meet the limit.
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
		}
	}
}

// TestCorruptResultCountsAsFailure flips one byte of one checked result on
// its way into the benchmark: the run must count it failed and not correct.
func TestCorruptResultCountsAsFailure(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"sweep-schemes", "cached-reads"} {
		res := runTiny(t, spec, w, false, true)
		if res.Correct || res.Failed < 1 {
			t.Errorf("%s with a corrupted result: correct=%v failed=%d, want false and ≥ 1", w, res.Correct, res.Failed)
		}
	}
}

func TestSelfTimesSubtractCoveredChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "report.exec", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sim.run", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "sim.run", Start: 30, End: 60},  // overlaps its sibling
		{ID: 4, Parent: 1, Name: "sim.run", Start: 90, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	if got, want := self[1], time.Duration(100-50-10); got != want {
		t.Errorf("parent self time %v, want %v", got, want)
	}
	if got := layerSelf(spans)["sim"]; got != 90 {
		t.Errorf("sim self time %v, want 90ns", got)
	}
}

func TestIsotonicPoolsViolators(t *testing.T) {
	got := isotonic([]float64{1, 5, 3, 4, 10, math.Inf(1)})
	want := []float64{1, 4, 4, 4, 10, math.Inf(1)}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("isotonic = %v, want %v", got, want)
		}
	}
}

func TestWindowPctIsMedianOfWindows(t *testing.T) {
	var ops []op
	for w := 0; w < 3; w++ {
		for i := 0; i < 10; i++ {
			ops = append(ops, op{done: true, latency: time.Duration(w*10+i) * time.Millisecond, outcome: outcome{ok: true}})
		}
	}
	ops[0].ok = false // a failure is infinitely slow, in its own window only
	if got := windowPct(ops, 50, 10); got != 14 {
		t.Errorf("windowPct p50 = %v, want the middle window's 14", got)
	}
	if got := windowPct(ops, 100, 10); got != 29 {
		t.Errorf("windowPct max = %v, want 29 (the windows' maxima are ∞, 19, 29)", got)
	}
}
