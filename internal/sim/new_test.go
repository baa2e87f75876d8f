package sim

import (
	"context"
	"errors"
	"testing"
)

// TestNewRejectsUnknownCell checks that an option that leaves the
// configuration invalid surfaces from New as a typed *ConfigError instead
// of a panic in the engine.
func TestNewRejectsUnknownCell(t *testing.T) {
	cases := []struct {
		name  string
		opts  []Option
		field string
	}{
		{"zero cycles", []Option{WithCycles(0)}, "MeasureCycles"},
		{"negative warmup", []Option{WithWarmup(-1)}, "WarmupAccesses"},
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
