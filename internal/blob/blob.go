// Package blob defines the pluggable shared-storage backend behind the
// result cache's second tier: a flat content-addressed namespace of
// checksummed payloads keyed by 64-hex-char SHA-256 addresses (the same
// keys internal/resultcache already uses). A backend is anything the whole
// fleet can reach — the filesystem implementation in this package covers an
// NFS/SMB shared mount out of the box and is layout-compatible with an
// S3-style object store (one object per key, atomic visibility, no partial
// reads).
//
// Every payload is framed ("eccbl1 " + SHA-256 hex + "\n" + payload) so a
// torn write, truncation, or bit rot on the shared medium is detected at
// read time and surfaced as ErrCorrupt rather than served: determinism
// makes every blob recomputable, so the only unforgivable failure is
// silently returning wrong bytes.
package blob

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
)

// Errors a Backend reports. Anything else is a transport/IO failure the
// caller should treat as "tier unavailable", not as data state.
var (
	// ErrNotFound: no blob stored under the key.
	ErrNotFound = errors.New("blob: not found")
	// ErrCorrupt: a blob existed but failed its checksum frame; the backend
	// has already deleted it (it is unrecoverable and recomputable).
	ErrCorrupt = errors.New("blob: corrupt frame")
	// ErrBadKey: the key is not a 64-char lowercase hex string.
	ErrBadKey = errors.New("blob: key must be 64 lowercase hex chars")
)

// Backend is a content-addressed blob store shared across replicas. All
// methods are safe for concurrent use by many processes; Put must be atomic
// (a reader sees the whole framed blob or nothing).
type Backend interface {
	// Put stores payload under key, framing it with a checksum. Overwriting
	// an existing key is allowed and must remain atomic (same-key payloads
	// are byte-identical by construction, so last-writer-wins is safe).
	Put(ctx context.Context, key string, payload []byte) error
	// Get returns the payload stored under key, verifying its frame. A
	// missing key returns ErrNotFound; a frame failure returns ErrCorrupt
	// after deleting the damaged blob.
	Get(ctx context.Context, key string) ([]byte, error)
	// Delete removes key. Deleting a missing key is not an error.
	Delete(ctx context.Context, key string) error
	// List returns every stored key, in unspecified order.
	List(ctx context.Context) ([]string, error)
}

// RepairStats counts the degraded-mode activity of a backend that can
// serve reads through partial damage (the erasure-coded wrapper in
// internal/blob/ec). Plain single-copy backends don't implement it.
type RepairStats struct {
	// Repaired: shards rewritten with reconstructed bytes after a read
	// served through missing or corrupt shards.
	Repaired uint64
	// ShardErrors: per-shard reads or writes that failed (missing, corrupt,
	// or unreachable shard roots) while the operation as a whole still
	// succeeded or degraded gracefully.
	ShardErrors uint64
}

// RepairStatter is implemented by backends that track RepairStats;
// internal/resultcache surfaces them as SharedRepaired/ShardErrors.
type RepairStatter interface {
	RepairStats() RepairStats
}

// ValidKey reports whether key is a well-formed content address: exactly
// 64 lowercase hex chars.
func ValidKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// frameMagic opens every stored blob; the version byte is part of it, so
// bumping the string orphans (and lazily recomputes) the whole corpus.
const frameMagic = "eccbl1 "

// FrameOverhead is what a frame adds to its payload: the magic, the 64-hex
// SHA-256 and a newline. A stored blob is len(payload)+FrameOverhead bytes.
const FrameOverhead = len(frameMagic) + 2*sha256.Size + 1

// EncodeFrame wraps payload in the checksummed wire/disk format shared by
// every backend: magic, SHA-256 hex of the payload, newline, payload.
func EncodeFrame(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	out := make([]byte, FrameOverhead, FrameOverhead+len(payload))
	copy(out, frameMagic)
	hex.Encode(out[len(frameMagic):], sum[:])
	out[FrameOverhead-1] = '\n'
	return append(out, payload...)
}

// DecodeFrame verifies a framed blob and returns its payload, or ok=false
// for anything malformed: wrong magic, short file, checksum mismatch. The
// payload aliases b.
func DecodeFrame(b []byte) ([]byte, bool) {
	if len(b) < FrameOverhead || string(b[:len(frameMagic)]) != frameMagic || b[FrameOverhead-1] != '\n' {
		return nil, false
	}
	payload := b[FrameOverhead:]
	sum := sha256.Sum256(payload)
	var want [2 * sha256.Size]byte
	hex.Encode(want[:], sum[:])
	if string(want[:]) != string(b[len(frameMagic):FrameOverhead-1]) {
		return nil, false
	}
	return payload, true
}
