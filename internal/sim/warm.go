package sim

import (
	"context"
	"math"

	"eccparity/internal/cache"
	"eccparity/internal/workload"
)

// Warm-state checkpoints. Warmup runs the access streams against the LLC
// alone: it touches the LLC's lines and counters, the live generators and
// the prefetcher's lastMiss, and nothing else (the controller, cores and
// inflight table see no traffic while e.warm is set). Those three are
// fully determined by warmKey, so a run whose key matches an earlier run's
// can copy that run's post-warmup state instead of re-warming. This is the
// engine's stand-in for the paper's checkpointed simulation regions.
//
// The snapshots live in the Arena, so they are pooled and freed with it:
// an idle process drops them with the arena pool at the next two GCs.

// warmStoreCap bounds the snapshots one Arena keeps. A snapshot holds each
// LLC set's valid prefix plus the generators, about 250 KB at the
// benchmark's 3000-access warmup and about 1 MB once the 8 MB LLC is full.
const warmStoreCap = 32

// warmSeenCap bounds the hashes of keys warmed once that an Arena
// remembers; past it the oldest is forgotten.
const warmSeenCap = 1024

// warmKey is every input warmup reads. Traffic-model parameters are keyed
// only for the model that reads them: LinesPerECCLine for ECC-line
// traffic, the channel count (which places XOR cachelines) for parity.
type warmKey struct {
	cores, llcBytes, llcWays, line int
	spec                           workload.Spec
	seed                           int64
	warmup                         int
	traffic                        TrafficModel
	noECCCaching                   bool
	linesPerECCLine                int
	channels                       int
}

// warmKeyOf returns the prepared engine's warm key, or ok=false when its
// warm state must not be shared: replayed sources are not ours to copy,
// and marked banks bring the mapper and the ECC-line layout into warmup.
func warmKeyOf(e *engine) (k warmKey, ok bool) {
	cfg := &e.cfg
	if cfg.Sources != nil || cfg.MarkedBankFraction != 0 || cfg.WarmupAccesses <= 0 ||
		cfg.LLCWays > math.MaxUint16 {
		return k, false
	}
	k = warmKey{
		cores: cfg.Cores, llcBytes: cfg.LLCBytes, llcWays: cfg.LLCWays, line: e.line,
		spec: cfg.Workload, seed: cfg.Seed, warmup: cfg.WarmupAccesses,
		traffic: cfg.Scheme.Traffic, noECCCaching: cfg.DisableECCCaching,
	}
	switch cfg.Scheme.Traffic {
	case TrafficECCLine:
		k.linesPerECCLine = cfg.Scheme.LinesPerECCLine
	case TrafficParity:
		k.channels = e.channels
	}
	return k, true
}

// hash folds the key into 64 bits for the seen set; never zero.
func (k *warmKey) hash() uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(k.spec.Name); i++ {
		h = (h ^ uint64(k.spec.Name[i])) * 1099511628211
	}
	for _, w := range [...]uint64{
		uint64(k.cores), uint64(k.llcBytes), uint64(k.llcWays), uint64(k.line),
		math.Float64bits(k.spec.APKI), k.spec.WorkingSetBytes,
		math.Float64bits(k.spec.Seq), math.Float64bits(k.spec.WriteFrac),
		boolWord(k.spec.Parsec)<<1 | boolWord(k.spec.Bin2) | boolWord(k.noECCCaching)<<2,
		uint64(k.seed), uint64(k.warmup), uint64(k.traffic),
		uint64(k.linesPerECCLine), uint64(k.channels),
	} {
		h = mix64(h ^ w)
	}
	return h | 1
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// warmSnap is one post-warmup state.
type warmSnap struct {
	key      warmKey
	llc      cache.Snapshot
	gens     []workload.Generator
	lastMiss []uint64
	used     uint64 // store tick of the last put or hit, for LRU eviction
}

// warmStore is an Arena's bounded, LRU set of warm snapshots. A key is
// snapshotted on its second complete warmup, not its first, so a stream of
// one-off keys (fresh seeds) pays nothing but a probe of the seen set.
type warmStore struct {
	snaps []*warmSnap
	tick  uint64
	// seen holds the hashes of the last warmSeenCap keys warmed, with
	// seenRing recording their order so the oldest can be dropped.
	seen     map[uint64]struct{}
	seenRing [warmSeenCap]uint64
	seenNext int
}

// get returns the snapshot for k, or nil.
func (s *warmStore) get(k *warmKey) *warmSnap {
	for _, sn := range s.snaps {
		if sn.key == *k {
			s.tick++
			sn.used = s.tick
			return sn
		}
	}
	return nil
}

// sighted records one complete warmup of k and reports whether k had
// completed one before.
func (s *warmStore) sighted(k *warmKey) bool {
	h := k.hash()
	if _, ok := s.seen[h]; ok {
		return true
	}
	if s.seen == nil {
		s.seen = make(map[uint64]struct{}, warmSeenCap)
	}
	if old := s.seenRing[s.seenNext]; old != 0 {
		delete(s.seen, old)
	}
	s.seenRing[s.seenNext] = h
	s.seenNext = (s.seenNext + 1) % warmSeenCap
	s.seen[h] = struct{}{}
	return false
}

// slot returns the snapshot to overwrite with a new key: a fresh one while
// the store has room, else the least recently used, whose buffers are
// reused.
func (s *warmStore) slot() *warmSnap {
	s.tick++
	if len(s.snaps) < warmStoreCap {
		sn := &warmSnap{used: s.tick}
		s.snaps = append(s.snaps, sn)
		return sn
	}
	lru := s.snaps[0]
	for _, sn := range s.snaps[1:] {
		if sn.used < lru.used {
			lru = sn
		}
	}
	lru.used = s.tick
	return lru
}

// warmStart brings a prepared engine to its post-warmup state: by copy
// when the arena holds a snapshot of the same warm key, else by a cold
// reset and a full warmup, snapshotting the result when the key has been
// warmed before. A canceled warmup returns its error and publishes
// nothing.
func (a *Arena) warmStart(ctx context.Context, e *engine) error {
	k, ok := warmKeyOf(e)
	if ok {
		if sn := a.warm.get(&k); sn != nil {
			e.llc.Restore(&sn.llc)
			for i := range sn.gens {
				*a.genPool[i] = sn.gens[i]
			}
			copy(e.lastMiss, sn.lastMiss)
			return nil
		}
	}
	a.coldStart(e)
	if err := e.warmup(ctx); err != nil {
		return err
	}
	if ok && a.warm.sighted(&k) {
		sn := a.warm.slot()
		sn.key = k
		e.llc.SaveTo(&sn.llc)
		sn.gens = sn.gens[:0]
		for _, g := range a.genPool[:e.cfg.Cores] {
			sn.gens = append(sn.gens, *g)
		}
		sn.lastMiss = append(sn.lastMiss[:0], e.lastMiss...)
	}
	return nil
}
