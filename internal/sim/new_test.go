package sim

import (
	"context"
	"errors"
	"testing"
)

// TestNewValidCell checks the happy path: a Sim built from a known cell
// runs to completion and produces the same Result as the legacy mustRun(t, cfg)
// entry point with an identical configuration.
func TestNewValidCell(t *testing.T) {
	s, err := New(
		WithCell("chipkill18", QuadEq, "mcf"),
		WithCycles(20000),
		WithWarmup(2000),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	cfg := DefaultConfig("chipkill18", QuadEq, "mcf")
	cfg.MeasureCycles = 20000
	cfg.WarmupAccesses = 2000
	want := mustRun(t, cfg)
	if got != want {
		t.Fatalf("Sim.Run diverged from RunContext:\n got %+v\nwant %+v", got, want)
	}
}

// TestNewRejectsUnknownCell checks that a failed option surfaces from New
// as a typed *ConfigError instead of the panic the legacy path raised.
func TestNewRejectsUnknownCell(t *testing.T) {
	cases := []struct {
		name  string
		opts  []Option
		field string
	}{
		{"unknown scheme", []Option{WithCell("nope", QuadEq, "mcf")}, "Scheme"},
		{"unknown workload", []Option{WithCell("chipkill18", QuadEq, "nope")}, "Workload"},
		{"zero cycles", []Option{WithCell("chipkill18", QuadEq, "mcf"), WithCycles(0)}, "MeasureCycles"},
		{"negative warmup", []Option{WithCell("chipkill18", QuadEq, "mcf"), WithWarmup(-1)}, "WarmupAccesses"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.opts...)
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("New error = %v, want *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("ConfigError.Field = %q, want %q", ce.Field, tc.field)
			}
		})
	}
}

// TestNewRunWithoutCell checks that Run on a Sim with no cell selected
// fails with a ConfigError rather than dereferencing a nil scheme.
func TestNewRunWithoutCell(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Run(context.Background()); err == nil {
		t.Fatal("Run without a cell succeeded, want ConfigError")
	}
}

// TestRunContextCancel checks the tentpole property at the single-run
// level: a canceled context interrupts the engine promptly and the run
// reports ctx.Err() rather than a fabricated Result.
func TestRunContextCancel(t *testing.T) {
	cfg := DefaultConfig("chipkill18", QuadEq, "mcf")
	cfg.MeasureCycles = 1e9 // far longer than the test would tolerate
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on canceled ctx = %v, want context.Canceled", err)
	}
}

// TestEvaluationContextCancel checks that a grid evaluation propagates
// cancellation instead of returning a partially filled Evaluation.
func TestEvaluationContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EvaluationContext(ctx, QuadEq, []string{"chipkill18"}, []string{"mcf"},
		WithCycles(1e9))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("EvaluationContext on canceled ctx = %v, want context.Canceled", err)
	}
}
