package ec

import (
	"bytes"
	"context"
	"errors"
	"sort"
	"strings"
	"sync"
	"testing"

	"eccparity/internal/blob"
)

// memRoot is an in-memory shard root that stores bytes as given, with no
// checksum frame of its own, so a flipped byte reaches decodeShard and the
// stripe's end-to-end hash instead of being caught by blob.FS's frame.
type memRoot struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMemRoot() *memRoot { return &memRoot{m: map[string][]byte{}} }

func (r *memRoot) Put(_ context.Context, key string, payload []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[key] = bytes.Clone(payload)
	return nil
}

func (r *memRoot) Get(_ context.Context, key string) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.m[key]
	if !ok {
		return nil, blob.ErrNotFound
	}
	return bytes.Clone(b), nil
}

func (r *memRoot) Delete(_ context.Context, key string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.m, key)
	return nil
}

func (r *memRoot) List(context.Context) ([]string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.m))
	for k := range r.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

// flipK and flipM are the stripe geometry of the flip checks: one parity
// shard, so one damaged shard is exactly the budget.
const flipK, flipM = 2, 1

// storeOverMem writes payload through a fresh (flipK, flipM) backend over
// memory roots and returns the backend and its roots.
func storeOverMem(t *testing.T, key string, payload []byte) (*Backend, []*memRoot) {
	t.Helper()
	roots := make([]*memRoot, flipK+flipM)
	backends := make([]blob.Backend, len(roots))
	for i := range roots {
		roots[i] = newMemRoot()
		backends[i] = roots[i]
	}
	b, err := New(flipK, flipM, backends)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put(context.Background(), key, payload); err != nil {
		t.Fatal(err)
	}
	return b, roots
}

// checkFlip XORs mask into byte at (modulo the shard's length) of shard's
// stored bytes and asserts the read returns the original payload or a
// miss, never other bytes.
func checkFlip(t *testing.T, payload []byte, shard, at int, mask byte) {
	t.Helper()
	key := testKey("flip")
	b, roots := storeOverMem(t, key, payload)
	raw := roots[shard].m[key]
	at %= len(raw)
	raw[at] ^= mask
	got, err := b.Get(context.Background(), key)
	switch {
	case err == nil:
		if !bytes.Equal(got, payload) {
			t.Fatalf("shard %d byte %d ^%#x: Get served %q, want %q or a miss", shard, at, mask, got, payload)
		}
	case errors.Is(err, blob.ErrCorrupt), errors.Is(err, blob.ErrNotFound):
	default:
		t.Fatalf("shard %d byte %d ^%#x: Get = %v, want the payload or a miss", shard, at, mask, err)
	}
}

// TestFlipEveryShardByte is the exhaustive form of the fuzz target's flip
// property (the kopia flipByte pattern): every byte of every stored shard,
// header and body, flipped in turn.
func TestFlipEveryShardByte(t *testing.T) {
	payload := []byte("a stored result document, striped two data + one parity")
	key := testKey("flip")
	_, roots := storeOverMem(t, key, payload)
	for shard, r := range roots {
		for at := range r.m[key] {
			for _, mask := range []byte{0x01, 0x80, 0xff} {
				checkFlip(t, payload, shard, at, mask)
			}
		}
	}
}

// FuzzDecodeShard feeds arbitrary bytes to the shard header parse, which
// must never panic, and whatever it accepts must be exactly what
// encodeShard writes for the parsed header and body. It then stores
// payload through an erasure-coded backend, flips one byte of one stored
// shard, and checks the read serves the original payload or a miss, never
// other bytes.
func FuzzDecodeShard(f *testing.F) {
	sum := strings.Repeat("ab", 32)
	f.Add(encodeShard(2, 1, 0, 5, sum, []byte("hel")), []byte("hello"), uint32(0), byte(1))
	f.Add([]byte(shardMagic+" 2 1 0 -1 "+sum+"\nx"), []byte("x"), uint32(7), byte(0x80))
	f.Add([]byte(shardMagic+" 99999999999999999999 1 0 5 "+sum+"\n"), []byte{}, uint32(3), byte(0xff))
	f.Add([]byte("no newline at all"), []byte("payload"), uint32(40), byte(2))
	f.Fuzz(func(t *testing.T, raw, payload []byte, at uint32, mask byte) {
		if h, body, ok := decodeShard(raw); ok {
			if h.plen < 0 || len(h.sum) != 64 {
				t.Fatalf("accepted header %+v", h)
			}
			if !bytes.Equal(encodeShard(h.k, h.m, h.idx, h.plen, h.sum, body), raw) {
				t.Fatalf("accepted %q, which is not the encoding of its header %+v", raw, h)
			}
		}

		if mask == 0 {
			mask = 0x80
		}
		n := uint32(flipK + flipM)
		checkFlip(t, payload, int(at%n), int(at/n), mask)
	})
}
