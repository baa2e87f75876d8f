package resultcache

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eccparity/internal/blob"
)

// TestCorruptDiskEntryRecomputes is the satellite regression: a cached file
// that rots on disk — here a single flipped bit in the payload — must not
// be served. The disk tier's blob.FS detects the checksum mismatch and
// deletes the file, and the entry recomputes as a miss.
func TestCorruptDiskEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	key, _ := Key(map[string]int{"seed": 7})
	orig := []byte(`{"experiment":"fig8","text":"rows"}`)

	c1, err := New(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c1.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) { return orig, nil }); err != nil {
		t.Fatal(err)
	}

	// Flip one payload bit on disk, past the "eccbl1 <hex>\n" frame header.
	path := blobPath(dir, key)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh instance (no memory copy) must recompute, not serve rot.
	c2, err := New(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	recomputed := false
	v, hit, err := c2.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
		recomputed = true
		return orig, nil
	})
	if err != nil || hit || !recomputed {
		t.Fatalf("corrupt entry: hit=%v recomputed=%v err=%v, want miss+recompute", hit, recomputed, err)
	}
	if !bytes.Equal(v, orig) {
		t.Fatalf("recomputed bytes %q != original %q", v, orig)
	}
	if s := c2.Stats(); s.Corrupt != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 corrupt / 1 miss", s)
	}
	// The rotten file was replaced by the recomputed entry's valid frame.
	b2, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("recomputed entry not re-persisted: %v", err)
	}
	if payload, ok := blob.DecodeFrame(b2); !ok || !bytes.Equal(payload, orig) {
		t.Fatalf("re-persisted frame invalid: ok=%v payload=%q", ok, payload)
	}
}

// TestTruncatedDiskEntryRecomputes covers the crash-torn-write shape of
// corruption: a file cut mid-payload fails the frame check the same way.
func TestTruncatedDiskEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	key, _ := Key(map[string]int{"seed": 8})
	c1, _ := New(dir, 0)
	orig := []byte("0123456789abcdef0123456789abcdef")
	c1.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) { return orig, nil })

	path := blobPath(dir, key)
	b, _ := os.ReadFile(path)
	os.WriteFile(path, b[:len(b)-10], 0o644)

	c2, _ := New(dir, 0)
	if _, ok := c2.Peek(key); ok {
		t.Fatal("Peek served a truncated entry")
	}
	if s := c2.Stats(); s.Corrupt != 1 {
		t.Errorf("corrupt = %d, want 1", s.Corrupt)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("truncated file not deleted: %v", err)
	}
}

// TestDiskEvictionLRU: with a byte budget, the least-recently-used entries
// leave disk first, and a read refreshes an entry's recency.
func TestDiskEvictionLRU(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 100)
	frameSize := int64(len(blob.EncodeFrame(payload)))

	// Budget for exactly three entries.
	c, err := New(dir, 3*frameSize)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 4)
	for i := range keys {
		keys[i], _ = Key(map[string]int{"i": i})
	}
	for _, k := range keys[:3] {
		if _, _, err := c.GetOrCompute(context.Background(), k, func(context.Context) ([]byte, error) { return payload, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Touch keys[0] and keys[2] via a fresh instance so recency comes from
	// disk reads (startup mtime order can tie), then insert a fourth entry:
	// keys[1] is now unambiguously the LRU and must go.
	c2, err := New(dir, 3*frameSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{keys[0], keys[2]} {
		if _, ok := c2.Peek(k); !ok {
			t.Fatal("warm entry missing")
		}
	}
	if _, _, err := c2.GetOrCompute(context.Background(), keys[3], func(context.Context) ([]byte, error) { return payload, nil }); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(blobPath(dir, keys[1])); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("LRU entry %s survived eviction: %v", keys[1][:8], err)
	}
	for _, k := range []string{keys[0], keys[2], keys[3]} {
		if _, err := os.Stat(blobPath(dir, k)); err != nil {
			t.Errorf("entry %s evicted out of order: %v", k[:8], err)
		}
	}
	s := c2.Stats()
	if s.Evicted != 1 || s.DiskEntries != 3 || s.DiskBytes != 3*frameSize {
		t.Errorf("stats = %+v, want 1 evicted / 3 entries / %d bytes", s, 3*frameSize)
	}
}

// TestStartupTrimsOversizedCorpus: an existing corpus larger than the
// budget is trimmed (oldest first) when the cache opens.
func TestStartupTrimsOversizedCorpus(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("y"), 50)
	frameSize := int64(len(blob.EncodeFrame(payload)))
	c1, _ := New(dir, 0)
	for i := 0; i < 5; i++ {
		k, _ := Key(map[string]int{"i": i})
		c1.GetOrCompute(context.Background(), k, func(context.Context) ([]byte, error) { return payload, nil })
	}

	c2, err := New(dir, 2*frameSize)
	if err != nil {
		t.Fatal(err)
	}
	if s := c2.Stats(); s.DiskEntries != 2 || s.Evicted != 3 {
		t.Errorf("stats after trim = %+v, want 2 entries / 3 evicted", s)
	}
}

// TestCanceledComputeCachesNothing: a computation that returns its
// context's error must leave no trace — no memory entry, no disk file —
// so the next caller recomputes cleanly.
func TestCanceledComputeCachesNothing(t *testing.T) {
	dir := t.TempDir()
	c, _ := New(dir, 0)
	key, _ := Key(map[string]int{"seed": 9})

	ctx, cancel := context.WithCancel(context.Background())
	_, _, err := c.GetOrCompute(ctx, key, func(ctx context.Context) ([]byte, error) {
		cancel()
		return nil, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, ok := c.Peek(key); ok {
		t.Fatal("canceled run left a memory entry")
	}
	if files := filesUnder(t, dir); len(files) != 0 {
		t.Fatalf("canceled run left disk files: %v", files)
	}

	// Resubmission recomputes and caches normally.
	want := []byte("fresh")
	v, hit, err := c.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) { return want, nil })
	if err != nil || hit || !bytes.Equal(v, want) {
		t.Fatalf("resubmit: v=%q hit=%v err=%v", v, hit, err)
	}
}

// TestWaiterCancelLeavesFlightRunning: a coalesced waiter that gives up
// gets ctx.Err() immediately, while the leader's computation completes and
// caches for everyone else.
func TestWaiterCancelLeavesFlightRunning(t *testing.T) {
	c, _ := New("", 0)
	gate := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) {
			<-gate
			return []byte("v"), nil
		})
	}()
	// Wait until the leader's flight is registered.
	for {
		c.mu.Lock()
		_, inflight := c.inflight["k"]
		c.mu.Unlock()
		if inflight {
			break
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.GetOrCompute(ctx, "k", func(context.Context) ([]byte, error) {
		t.Error("waiter ran compute despite in-flight leader")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(gate)
	<-leaderDone
	if v, ok := c.Get("k"); !ok || string(v) != "v" {
		t.Fatalf("leader result lost: ok=%v v=%q", ok, v)
	}
}

// TestOldFormatEntriesRecompute: pre-frame (raw payload) files from before
// the checksum format fail the frame check and recompute rather than being
// served with unverifiable integrity.
func TestOldFormatEntriesRecompute(t *testing.T) {
	dir := t.TempDir()
	key, _ := Key(map[string]int{"legacy": 1})
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte(`{"old":"format"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	c, _ := New(dir, 0)
	want := []byte(`{"new":"format"}`)
	v, hit, err := c.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) { return want, nil })
	if err != nil || hit || !bytes.Equal(v, want) {
		t.Fatalf("legacy entry: v=%q hit=%v err=%v, want recompute", v, hit, err)
	}
}

// TestFrameRoundTrip: payloads of every shape — empty, one byte, a run of
// zeros — come back byte-identical from the disk tier of a fresh cache,
// framed at exactly blob.FrameOverhead bytes over their length. The frame
// codec's own edge cases (nil, garbage, short input) are pinned by
// internal/blob's TestFrameRoundTrip.
func TestFrameRoundTrip(t *testing.T) {
	dir := t.TempDir()
	payloads := [][]byte{{}, []byte("a"), bytes.Repeat([]byte{0}, 1000)}
	c1, err := New(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for i, p := range payloads {
		key, _ := Key(map[string]int{"frame": i})
		if _, _, err := c1.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) { return p, nil }); err != nil {
			t.Fatal(err)
		}
		want += int64(len(p) + blob.FrameOverhead)
	}
	c2, err := New(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s := c2.Stats(); s.DiskEntries != len(payloads) || s.DiskBytes != want {
		t.Fatalf("reopened index = %d entries / %d bytes, want %d / %d", s.DiskEntries, s.DiskBytes, len(payloads), want)
	}
	for i, p := range payloads {
		key, _ := Key(map[string]int{"frame": i})
		if got, ok := c2.Peek(key); !ok || !bytes.Equal(got, p) {
			t.Fatalf("round trip failed for %d-byte payload: ok=%v", len(p), ok)
		}
	}
}

// TestLegacyRootEntryRemovedAtOpen: a flat "<hash>.json" entry in the
// eccrc1 frame that earlier versions of the cache wrote is removed when the
// cache opens — it is never indexed, so it cannot sit outside the byte
// budget — and its key is a one-time miss that recomputes into the current
// layout.
func TestLegacyRootEntryRemovedAtOpen(t *testing.T) {
	dir := t.TempDir()
	key, _ := Key(map[string]int{"legacy": 2})
	want := []byte(`{"experiment":"fig8"}`)
	sum := sha256.Sum256(want)
	legacy := filepath.Join(dir, key+".json")
	frame := append([]byte("eccrc1 "+hex.EncodeToString(sum[:])+"\n"), want...)
	if err := os.WriteFile(legacy, frame, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := New(dir, int64(len(frame)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(legacy); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("legacy entry survived open: %v", err)
	}
	if s := c.Stats(); s.DiskEntries != 0 || s.DiskBytes != 0 || s.Evicted != 0 {
		t.Fatalf("legacy entry indexed: %+v", s)
	}
	computes := 0
	compute := func(context.Context) ([]byte, error) { computes++; return want, nil }
	for i := 0; i < 2; i++ {
		if v, _, err := c.GetOrCompute(context.Background(), key, compute); err != nil || !bytes.Equal(v, want) {
			t.Fatalf("read %d: v=%q err=%v", i, v, err)
		}
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want one recompute", computes)
	}
	if _, err := os.Stat(blobPath(dir, key)); err != nil {
		t.Fatalf("recomputed entry not stored in the blob layout: %v", err)
	}
}

// TestTmpOrphanSweptAtOpen: a write that crashed between creating its tmp
// file and the rename leaves an orphan in the cache directory; opening the
// cache removes it, wherever an old or current version put it.
func TestTmpOrphanSweptAtOpen(t *testing.T) {
	dir := t.TempDir()
	key, _ := Key(map[string]int{"orphan": 1})
	orphans := []string{
		filepath.Join(dir, key+".tmp4242"),          // flat layout
		filepath.Join(dir, key[:2], key+".tmp4242"), // fan-out layout
	}
	for _, p := range orphans {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := New(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range orphans {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("orphan %s survived open: %v", p, err)
		}
	}
	if s := c.Stats(); s.DiskEntries != 0 || s.DiskBytes != 0 {
		t.Errorf("orphan indexed: %+v", s)
	}
}

// TestDiskByteFlipNeverServesOtherBytes is the stored-frame invariant in
// the style of kopia's flipByte test: whichever byte of a stored disk entry
// flips, a fresh cache either serves the original bytes or recomputes them,
// never anything else.
func TestDiskByteFlipNeverServesOtherBytes(t *testing.T) {
	dir := t.TempDir()
	key, _ := Key(map[string]int{"flip": 1})
	orig := []byte(`{"experiment":"fig8","rows":[1,2,3]}`)
	seed, err := New(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := seed.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) { return orig, nil }); err != nil {
		t.Fatal(err)
	}
	path := blobPath(dir, key)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := range good {
		flipped := append([]byte(nil), good...)
		flipped[off] ^= 0x01
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := New(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		recomputed := false
		v, hit, err := c.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
			recomputed = true
			return orig, nil
		})
		if err != nil || !bytes.Equal(v, orig) {
			t.Fatalf("flip at offset %d: served %q (err %v), want the original bytes", off, v, err)
		}
		if hit == recomputed {
			t.Fatalf("flip at offset %d: hit=%v recomputed=%v", off, hit, recomputed)
		}
		// Recomputing rewrote a good frame; restore it either way so the
		// next offset starts from the stored original.
		if err := os.WriteFile(path, good, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// filesUnder lists every regular file below dir.
func filesUnder(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, strings.TrimPrefix(path, dir))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
