package resultcache

import (
	"bytes"
	"context"
	"os"
	"testing"

	"eccparity/internal/blob"
	"eccparity/internal/blob/ec"
)

// newECShared builds a k=4,m=2 erasure-coded shared tier over six fresh
// shard roots and returns both the backend and the root dirs so tests can
// damage individual shards.
func newECShared(t *testing.T) (*ec.Backend, []string) {
	t.Helper()
	dirs := ec.DeriveRoots(t.TempDir(), 6)
	b, err := ec.OpenFS(4, 2, dirs)
	if err != nil {
		t.Fatal(err)
	}
	return b, dirs
}

// reopenEC returns a fresh backend over the same shard roots — fresh repair
// counters, same on-disk state — modeling another replica on the mount.
func reopenEC(t *testing.T, dirs []string) *ec.Backend {
	t.Helper()
	b, err := ec.OpenFS(4, 2, dirs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// publishEC computes a result through a throwaway cache backed by the EC
// tier and flushes the write-behind publish, seeding all k+m shards.
func publishEC(t *testing.T, shared blob.Backend, key string, val []byte) {
	t.Helper()
	c, err := New(t.TempDir(), 0, WithShared(shared))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, hit, err := c.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
		return val, nil
	}); err != nil || hit {
		t.Fatalf("seed compute: hit=%v err=%v", hit, err)
	}
	c.FlushShared()
	if s := c.Stats(); s.SharedPublished != 1 {
		t.Fatalf("SharedPublished = %d, want 1", s.SharedPublished)
	}
}

// Losing up to m shard roots is invisible to callers: the read is still a
// shared hit with byte-identical payload and zero recomputes, and the
// degraded read surfaces in SharedRepaired rather than in any error counter.
func TestECSharedDegradedReadIsHitWithRepair(t *testing.T) {
	shared, dirs := newECShared(t)
	key := mustKey(t, map[string]string{"experiment": "fig8", "ec": "degraded"})
	want := []byte(`{"experiment":"fig8","rows":[4,2]}`)
	publishEC(t, shared, key, want)

	// Kill two whole shard roots — the worst in-budget failure.
	for _, d := range dirs[1:3] {
		if err := os.RemoveAll(d); err != nil {
			t.Fatal(err)
		}
	}

	c, err := New(t.TempDir(), 0, WithShared(reopenEC(t, dirs)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	got, hit, err := c.GetOrCompute(context.Background(), key, noCompute(t))
	if err != nil || !hit {
		t.Fatalf("degraded read: hit=%v err=%v", hit, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("degraded bytes = %q, want %q", got, want)
	}
	s := c.Stats()
	if s.SharedHits != 1 || s.Misses != 0 || s.SharedCorrupt != 0 || s.SharedErrors != 0 {
		t.Fatalf("stats after degraded hit = %+v", s)
	}
	if s.SharedRepaired == 0 {
		t.Fatalf("SharedRepaired = 0, want > 0 (degraded read must rebuild lost shards)")
	}
}

// Beyond the parity budget the EC tier reports ErrCorrupt like any other
// backend: the caller recomputes, counts SharedCorrupt, and the write-behind
// publish re-seeds a full stripe that fresh replicas then hit.
func TestECSharedBeyondBudgetRecomputesAndRepairs(t *testing.T) {
	shared, dirs := newECShared(t)
	key := mustKey(t, "ec-beyond-budget")
	want := []byte(`{"good":"bytes"}`)
	publishEC(t, shared, key, want)

	// m+1 roots gone: only 3 of k=4 data-equivalent shards survive.
	for _, d := range dirs[:3] {
		if err := os.RemoveAll(d); err != nil {
			t.Fatal(err)
		}
	}

	c, err := New(t.TempDir(), 0, WithShared(reopenEC(t, dirs)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	computes := 0
	got, hit, err := c.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
		computes++
		return want, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hit || computes != 1 || !bytes.Equal(got, want) {
		t.Fatalf("beyond-budget read: hit=%v computes=%d bytes=%q", hit, computes, got)
	}
	if s := c.Stats(); s.SharedCorrupt != 1 {
		t.Fatalf("SharedCorrupt = %d, want 1 (stats %+v)", s.SharedCorrupt, s)
	}

	// The recompute's publish rebuilds the full stripe; a fresh replica
	// with an empty local cache serves it without computing.
	c.FlushShared()
	fresh, err := New(t.TempDir(), 0, WithShared(reopenEC(t, dirs)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fresh.Close)
	got2, hit2, err := fresh.GetOrCompute(context.Background(), key, noCompute(t))
	if err != nil || !hit2 || !bytes.Equal(got2, want) {
		t.Fatalf("repaired read: hit=%v err=%v bytes=%q", hit2, err, got2)
	}
}

// Shard roots that error (dead mounts, not clean misses) are transport
// failures: the cache counts SharedErrors, recomputes locally, and the EC
// backend must not delete the surviving shards — they become readable again
// when the mounts return.
func TestECSharedTransportErrorsDegrade(t *testing.T) {
	shared, dirs := newECShared(t)
	key := mustKey(t, "ec-transport")
	want := []byte("still served locally")
	publishEC(t, shared, key, want)

	// Rebuild the backend with m+1 roots replaced by erroring mounts: one
	// surviving shard is below k, and the errors make it a transport
	// failure rather than a corruption verdict.
	roots := make([]blob.Backend, 6)
	for i, d := range dirs {
		if i < 5 {
			roots[i] = failingBackend{}
			continue
		}
		fsRoot, err := blob.NewFS(d)
		if err != nil {
			t.Fatal(err)
		}
		roots[i] = fsRoot
	}
	degraded, err := ec.New(4, 2, roots)
	if err != nil {
		t.Fatal(err)
	}

	c, err := New(t.TempDir(), 0, WithShared(degraded))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	computes := 0
	got, hit, err := c.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
		computes++
		return want, nil
	})
	if err != nil || hit || computes != 1 || !bytes.Equal(got, want) {
		t.Fatalf("transport-degraded read: hit=%v err=%v computes=%d bytes=%q", hit, err, computes, got)
	}
	c.FlushShared() // publish also fails: < k roots writable
	s := c.Stats()
	if s.SharedErrors < 2 { // failed read + failed publish
		t.Fatalf("SharedErrors = %d, want >= 2 (stats %+v)", s.SharedErrors, s)
	}
	if s.SharedCorrupt != 0 {
		t.Fatalf("SharedCorrupt = %d, want 0: transport errors must not count as corruption", s.SharedCorrupt)
	}
	if s.ShardErrors == 0 {
		t.Fatalf("ShardErrors = 0, want > 0 (per-shard failures must surface in Stats)")
	}

	// The surviving shard was NOT deleted: with all mounts back, the
	// original stripe reconstructs (one shard plus the k+m-1 healthy roots
	// untouched by this degraded backend still hold their shards).
	healed, err := reopenEC(t, dirs).Get(context.Background(), key)
	if err != nil || !bytes.Equal(healed, want) {
		t.Fatalf("after mounts return: err=%v bytes=%q, want original payload", err, healed)
	}
}
