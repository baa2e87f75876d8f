package resultcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"eccparity/internal/blob"
)

func TestKeyDeterministicAndSensitive(t *testing.T) {
	type cfg struct {
		Experiment string  `json:"experiment"`
		Seed       int64   `json:"seed"`
		Cycles     float64 `json:"cycles"`
	}
	a1, err := Key(cfg{"fig1", 1, 8000})
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := Key(cfg{"fig1", 1, 8000})
	b, _ := Key(cfg{"fig1", 2, 8000})
	if a1 != a2 {
		t.Errorf("same config hashed differently: %s vs %s", a1, a2)
	}
	if a1 == b {
		t.Error("different seeds collapsed to one key")
	}
	if !blob.ValidKey(a1) {
		t.Errorf("key %q is not 64 hex chars", a1)
	}
}

// TestSingleflight is the satellite-task regression: N concurrent
// submissions of the same key execute the underlying computation exactly
// once, and every caller gets the same bytes.
func TestSingleflight(t *testing.T) {
	c, err := New("", 0)
	if err != nil {
		t.Fatal(err)
	}
	var computes atomic.Int64
	gate := make(chan struct{})
	const callers = 32

	var wg sync.WaitGroup
	vals := make([][]byte, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.GetOrCompute(context.Background(), "k1", func(context.Context) ([]byte, error) {
				computes.Add(1)
				<-gate // hold the flight open until all callers have arrived
				return []byte("payload"), nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times for %d concurrent callers, want 1", n, callers)
	}
	for i, v := range vals {
		if !bytes.Equal(v, []byte("payload")) {
			t.Fatalf("caller %d got %q", i, v)
		}
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Errorf("misses = %d, want 1", s.Misses)
	}
	if s.Hits+s.Coalesced != callers-1 {
		t.Errorf("hits(%d)+coalesced(%d) = %d, want %d", s.Hits, s.Coalesced, s.Hits+s.Coalesced, callers-1)
	}
}

// TestHitReturnsOriginalBytes: a cache hit returns bytes identical to the
// original run, and the caller cannot corrupt the cached copy.
func TestHitReturnsOriginalBytes(t *testing.T) {
	c, _ := New("", 0)
	orig := []byte(`{"experiment":"fig8","text":"=== Fig. 8 ==="}`)
	v1, hit, err := c.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) { return orig, nil })
	if err != nil || hit {
		t.Fatalf("first call: hit=%v err=%v, want miss/nil", hit, err)
	}
	v1[0] = 'X' // a caller mutating its copy must not poison the cache
	v2, hit, err := c.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) {
		t.Fatal("compute ran on a warm key")
		return nil, nil
	})
	if err != nil || !hit {
		t.Fatalf("second call: hit=%v err=%v, want hit/nil", hit, err)
	}
	if !bytes.Equal(v2, orig) {
		t.Fatalf("cache hit bytes %q != original %q", v2, orig)
	}
	if v3, ok := c.Get("k"); !ok || !bytes.Equal(v3, orig) {
		t.Fatalf("Get: ok=%v bytes=%q", ok, v3)
	}
}

func TestDiskPersistenceAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	key, _ := Key(map[string]int{"seed": 1})
	c1, err := New(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	orig := []byte("result-bytes")
	if _, _, err := c1.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) { return orig, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(blobPath(dir, key)); err != nil {
		t.Fatalf("result not persisted: %v", err)
	}

	// A fresh instance (daemon restart) serves the bytes without computing.
	c2, _ := New(dir, 0)
	v, hit, err := c2.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
		t.Fatal("compute ran despite on-disk result")
		return nil, nil
	})
	if err != nil || !hit || !bytes.Equal(v, orig) {
		t.Fatalf("restart read: hit=%v err=%v bytes=%q", hit, err, v)
	}
	if s := c2.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Errorf("restart stats = %+v, want 1 hit 0 misses", s)
	}
}

func TestComputeErrorSharedAndRetryable(t *testing.T) {
	c, _ := New("", 0)
	boom := errors.New("boom")
	calls := 0
	if _, _, err := c.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) { calls++; return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Errors are not cached: the next caller retries.
	v, hit, err := c.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) { calls++; return []byte("ok"), nil })
	if err != nil || hit || !bytes.Equal(v, []byte("ok")) {
		t.Fatalf("retry: v=%q hit=%v err=%v", v, hit, err)
	}
	if calls != 2 {
		t.Errorf("compute calls = %d, want 2", calls)
	}
}

func TestPeekDoesNotCountHits(t *testing.T) {
	c, _ := New("", 0)
	c.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) { return []byte("v"), nil })
	before := c.Stats().Hits
	if v, ok := c.Peek("k"); !ok || string(v) != "v" {
		t.Fatalf("Peek: ok=%v v=%q", ok, v)
	}
	if _, ok := c.Peek("absent"); ok {
		t.Error("Peek(absent) = true")
	}
	if after := c.Stats().Hits; after != before {
		t.Errorf("Peek changed hit counter: %d → %d", before, after)
	}
}

func TestConcurrentDistinctKeys(t *testing.T) {
	c, _ := New(t.TempDir(), 0)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key, _ := Key(map[string]int{"i": i})
			want := []byte(fmt.Sprintf("val-%d", i))
			for j := 0; j < 4; j++ {
				v, _, err := c.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) { return want, nil })
				if err != nil || !bytes.Equal(v, want) {
					t.Errorf("key %d: v=%q err=%v", i, v, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if s := c.Stats(); s.Entries != 16 || s.Misses != 16 {
		t.Errorf("stats = %+v, want 16 entries / 16 misses", s)
	}
}
