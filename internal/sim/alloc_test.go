package sim

import (
	"context"
	"testing"

	"eccparity/internal/raceflag"
)

// TestHandleAccessSteadyStateAllocs drives a warmed engine far enough into
// its measurement phase that every pooled structure (cache, inflight
// prefetch table, eviction-cascade queue, bus rings) has reached its
// working size, then asserts that a full demand access — LLC lookup,
// eviction cascade, ECC maintenance, controller traffic — performs zero
// heap allocations. This is the property that keeps a Run's cost flat in
// the GC regardless of budget.
func TestHandleAccessSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	cfg := DefaultConfig("chipkill18", QuadEq, "mcf")
	cfg.WarmupAccesses = 8000
	cfg.MeasureCycles = 30000
	a := NewArena()
	e := a.prepare(cfg)
	if err := a.warmStart(context.Background(), e); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	if _, err := e.measure(context.Background(), 0); err != nil {
		t.Fatalf("measure: %v", err)
	}
	// Deeper into steady state: grow-once structures stop growing.
	for i := 0; i < 20000; i++ {
		acc := e.gens[0].Next()
		e.cores[0].AdvanceCompute(acc.InstrGap)
		e.handleAccess(0, acc)
		e.ctrl.Release(e.cores[0].Time())
	}
	n := testing.AllocsPerRun(200, func() {
		acc := e.gens[0].Next()
		e.cores[0].AdvanceCompute(acc.InstrGap)
		e.handleAccess(0, acc)
	})
	if n != 0 {
		t.Fatalf("handleAccess allocates %v per access in steady state, want 0", n)
	}
}
