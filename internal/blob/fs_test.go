package blob

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func key(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestPutGetRoundTrip(t *testing.T) {
	ctx := context.Background()
	fs, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := key("hello")
	payload := []byte(`{"result": 42}`)
	if err := fs.Put(ctx, k, payload); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Get(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, want %q", got, payload)
	}
	// Overwrite is allowed and atomic.
	if err := fs.Put(ctx, k, payload); err != nil {
		t.Fatal(err)
	}
	if got, err = fs.Get(ctx, k); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get after overwrite = %q, %v", got, err)
	}
}

func TestGetNotFound(t *testing.T) {
	fs, _ := NewFS(t.TempDir())
	if _, err := fs.Get(context.Background(), key("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
	}
}

func TestBadKeyRejected(t *testing.T) {
	fs, _ := NewFS(t.TempDir())
	ctx := context.Background()
	for _, k := range []string{"", "abc", "../../../../etc/passwd", key("x") + "0"} {
		if err := fs.Put(ctx, k, []byte("p")); !errors.Is(err, ErrBadKey) {
			t.Errorf("Put(%q) = %v, want ErrBadKey", k, err)
		}
		if _, err := fs.Get(ctx, k); !errors.Is(err, ErrBadKey) {
			t.Errorf("Get(%q) = %v, want ErrBadKey", k, err)
		}
		if err := fs.Delete(ctx, k); !errors.Is(err, ErrBadKey) {
			t.Errorf("Delete(%q) = %v, want ErrBadKey", k, err)
		}
	}
}

// A corrupted blob — truncated or bit-flipped — must be detected, deleted,
// and reported as ErrCorrupt, never returned.
func TestCorruptFrameDetectedAndDeleted(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fs, _ := NewFS(dir)
	cases := map[string][]byte{
		key("truncated"):  EncodeFrame([]byte("the full payload"))[:20],
		key("bitflip"):    flipLastByte(EncodeFrame([]byte("the full payload"))),
		key("garbage"):    []byte("not a frame at all"),
		key("empty"):      {},
		key("headeronly"): EncodeFrame([]byte("p"))[:FrameOverhead],
		key("badmagic"):   append([]byte("xxxxx1 "), EncodeFrame([]byte("p"))[7:]...),
	}
	for name, data := range cases {
		p := filepath.Join(dir, name[:2], name+".blob")
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Get(ctx, name); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Get(%s) = %v, want ErrCorrupt", name, err)
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("corrupt blob %s not deleted", name)
		}
		// Second read: the corpse is gone, so it's a plain miss.
		if _, err := fs.Get(ctx, name); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get(%s) after delete = %v, want ErrNotFound", name, err)
		}
	}
}

// TestFrameRoundTrip: every payload survives a frame round trip, and
// nothing that is not a well-formed frame decodes.
func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("a"), bytes.Repeat([]byte{0}, 1000)} {
		f := EncodeFrame(payload)
		if len(f) != len(payload)+FrameOverhead {
			t.Errorf("%d-byte payload framed to %d bytes, want +%d", len(payload), len(f), FrameOverhead)
		}
		got, ok := DecodeFrame(f)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("round trip failed for %d-byte payload", len(payload))
		}
	}
	upper := EncodeFrame([]byte("p"))
	copy(upper[len(frameMagic):], strings.ToUpper(string(upper[len(frameMagic):FrameOverhead-1])))
	for name, b := range map[string][]byte{
		"nil":          nil,
		"empty":        {},
		"garbage":      []byte("garbage"),
		"short header": EncodeFrame(nil)[:FrameOverhead-1],
		"no newline":   append(EncodeFrame(nil)[:FrameOverhead-1], ' '),
		"upper hex":    upper,
	} {
		if _, ok := DecodeFrame(b); ok {
			t.Errorf("DecodeFrame accepted %s", name)
		}
	}
}

func flipLastByte(b []byte) []byte {
	out := append([]byte(nil), b...)
	out[len(out)-1] ^= 0xff
	return out
}

// A crash between CreateTemp and rename strands a tmp file; NewFS must
// sweep such orphans from the root (legacy location) and the fan-out
// subdirectories (current location) so they cannot accumulate forever.
func TestNewFSSweepsTmpOrphans(t *testing.T) {
	dir := t.TempDir()
	k := key("orphaned")
	sub := filepath.Join(dir, k[:2])
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	orphans := []string{
		filepath.Join(dir, k+".tmp123456"), // legacy root-level orphan
		filepath.Join(sub, k+".tmp789"),    // fan-out orphan
	}
	for _, p := range orphans {
		if err := os.WriteFile(p, []byte("half-written frame"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A real blob in the same fan-out dir must survive the sweep.
	fs0, err := NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs0.Put(context.Background(), k, []byte("keep me")); err != nil {
		t.Fatal(err)
	}
	for _, p := range orphans {
		if err := os.WriteFile(p, []byte("half-written frame"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := NewFS(dir); err != nil {
		t.Fatal(err)
	}
	for _, p := range orphans {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived NewFS sweep", p)
		}
	}
	if got, err := fs0.Get(context.Background(), k); err != nil || string(got) != "keep me" {
		t.Fatalf("real blob damaged by sweep: %q, %v", got, err)
	}
}

// OpenFS's one walk returns every live blob with its framed size and
// sweeps crash and legacy leftovers; List walks the same tree but sweeps
// nothing, because at run time a tmp file may be a Put in flight.
func TestOpenFSIndexesAndSweeps(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fs0, err := NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int64{}
	for _, p := range []string{"a", "bb", "ccc"} {
		k := key(p)
		if err := fs0.Put(ctx, k, []byte(p)); err != nil {
			t.Fatal(err)
		}
		sizes[k] = int64(len(p) + FrameOverhead)
	}
	k := key("a")
	inFlight := filepath.Join(dir, k[:2], k+".tmp1")
	legacy := filepath.Join(dir, key("old")+".json")
	for _, p := range []string{inFlight, legacy} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs0.List(ctx); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{inFlight, legacy} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("List removed %s: %v", p, err)
		}
	}

	_, entries, err := OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(sizes) {
		t.Fatalf("OpenFS entries = %+v, want %d", entries, len(sizes))
	}
	for _, e := range entries {
		if want, ok := sizes[e.Key]; !ok || e.Size != want || e.ModTime.IsZero() {
			t.Errorf("entry %+v: want size %d", e, want)
		}
	}
	for _, p := range []string{inFlight, legacy} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("OpenFS left %s: %v", p, err)
		}
	}
}

// Put must never leave tmp files behind on the success path, and the tmp
// it uses must live in the key's fan-out directory (same-dir rename).
func TestPutLeavesNoTmpFiles(t *testing.T) {
	dir := t.TempDir()
	fs0, err := NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := key("clean")
	if err := fs0.Put(context.Background(), k, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.Contains(d.Name(), ".tmp") {
			t.Errorf("tmp file %s left after successful Put", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The corrupt-delete race (TOCTOU): Get reads a corrupt frame, a
// concurrent Put renames a good blob into place, and Get's cleanup must
// NOT delete the new good blob. The race is forced deterministically via
// the corrupt-read hook, which runs between the read and the delete.
func TestCorruptDeleteRaceKeepsConcurrentPut(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fs0, err := NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := key("raced")
	good := []byte("the freshly published good payload")
	p := filepath.Join(dir, k[:2], k+".blob")
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte("corrupt junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs0.corruptReadHook = func(hk string) {
		if hk != k {
			t.Fatalf("hook key %q, want %q", hk, k)
		}
		// The interleaved writer: a replica publishing good bytes between
		// this reader's read and its delete.
		if err := fs0.Put(ctx, k, good); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs0.Get(ctx, k); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of corrupt frame = %v, want ErrCorrupt", err)
	}
	fs0.corruptReadHook = nil
	// Before the fix, the unconditional os.Remove deleted the concurrent
	// Put's blob and this read reported ErrNotFound.
	got, err := fs0.Get(ctx, k)
	if err != nil {
		t.Fatalf("Get after raced publish = %v, want the good blob", err)
	}
	if !bytes.Equal(got, good) {
		t.Fatalf("Get = %q, want %q", got, good)
	}
}

func TestDeleteIdempotent(t *testing.T) {
	ctx := context.Background()
	fs, _ := NewFS(t.TempDir())
	k := key("gone")
	if err := fs.Delete(ctx, k); err != nil {
		t.Fatalf("Delete(missing) = %v, want nil", err)
	}
	if err := fs.Put(ctx, k, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete(ctx, k); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Get(ctx, k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete = %v, want ErrNotFound", err)
	}
}

func TestList(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fs, _ := NewFS(dir)
	want := []string{key("a"), key("b"), key("c")}
	for _, k := range want {
		if err := fs.Put(ctx, k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	// Stray files and tmp orphans must not be listed.
	os.WriteFile(filepath.Join(dir, "README"), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(dir, want[0][:2], "stray.txt"), []byte("x"), 0o644)
	got, err := fs.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("List = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v", got, want)
		}
	}
}

func TestCanceledContext(t *testing.T) {
	fs, _ := NewFS(t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	k := key("ctx")
	if err := fs.Put(ctx, k, []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("Put = %v, want context.Canceled", err)
	}
	if _, err := fs.Get(ctx, k); !errors.Is(err, context.Canceled) {
		t.Fatalf("Get = %v, want context.Canceled", err)
	}
}
