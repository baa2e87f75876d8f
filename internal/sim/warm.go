package sim

import (
	"context"
	"math"
	"reflect"
	"sync"

	"eccparity/internal/cache"
	"eccparity/internal/cpu"
	"eccparity/internal/mem"
	"eccparity/internal/workload"
)

// Engine checkpoints, the engine's stand-in for the paper's checkpointed
// simulation regions. One bounded store per Arena holds two kinds of
// entry:
//
//   - Warm snapshots. Warmup runs the access streams against the LLC
//     alone: it touches the LLC's lines and counters, the live generators
//     and the prefetcher's lastMiss, and nothing else (the controller,
//     cores and inflight table see no traffic while e.warm is set). Those
//     three are fully determined by warmKey, so a run whose key matches an
//     earlier run's copies that run's post-warmup state instead of
//     re-warming.
//   - End-of-window checkpoints. The measure loop reads MeasureCycles only
//     in its exit test and in the scrubber, and the controller's Finish
//     closes the energy integration after the loop. So a run at budget B2
//     passes through the exact state in which a run of the same
//     configuration at B1 < B2 leaves the loop. A completed run saves the
//     whole engine there, before Finish; a later run of the same runKey at
//     a budget B ≥ B1 restores the checkpoint with the largest B1 and
//     simulates only the remaining cycles.
//
// The entries live in the Arena, so they are pooled and freed with it: an
// idle process drops them with the arena pool at the next two GCs. Only
// the set of key hashes that decides what to store is process-wide.

// storeBytes bounds the bytes of the entries one Arena stores. At the
// benchmark's sweep windows a checkpoint holds 440–710 KB and a warm
// snapshot about 210 KB, so the bound holds one scheme's 16 workloads.
const storeBytes = 16 << 20

// sightCap bounds the process-wide set of key hashes; past it the oldest
// is forgotten.
const sightCap = 1024

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

// hash folds the key into 64 bits for the sighting set; never zero.
func (k *warmKey) hash() uint64 {
	h := hashSpec(0, &k.spec)
	for _, w := range [...]uint64{
		uint64(k.cores), uint64(k.llcBytes), uint64(k.llcWays), uint64(k.line),
		boolWord(k.noECCCaching), uint64(k.seed), uint64(k.warmup), uint64(k.traffic),
		uint64(k.linesPerECCLine), uint64(k.channels),
	} {
		h = mix64(h ^ w)
	}
	return h | 1
}

// runKey is every input a run reads except MeasureCycles. The scheme is
// keyed by its registry key and the SchemeConfig fields the engine reads
// beside it, never by comparing its ecc.Scheme.
type runKey struct {
	scheme                           string
	traffic                          TrafficModel
	linesPerECCLine                  int
	onDieOverhead                    float64
	class                            SystemClass
	spec                             workload.Spec
	cores, warmup, llcBytes, llcWays int
	seed                             int64
	marked, powerDown, speedBin      float64
	noECCCaching, openPage           bool
}

// runKeyOf returns cfg's run key, or ok=false when the run must not resume
// or be resumed from: replayed sources are not ours to
// copy, the scrubber schedules reads up to the budget, and a scheme
// without a registry key has nothing to key its codec by.
func runKeyOf(cfg *Config) (k runKey, ok bool) {
	if cfg.Sources != nil || cfg.ScrubLineInterval > 0 || cfg.Scheme.Key == "" ||
		cfg.LLCWays > math.MaxUint16 {
		return k, false
	}
	return runKey{
		scheme: cfg.Scheme.Key, traffic: cfg.Scheme.Traffic,
		linesPerECCLine: cfg.Scheme.LinesPerECCLine, onDieOverhead: cfg.Scheme.OnDieOverhead,
		class: cfg.Class, spec: cfg.Workload,
		cores: cfg.Cores, warmup: cfg.WarmupAccesses, llcBytes: cfg.LLCBytes, llcWays: cfg.LLCWays,
		seed: cfg.Seed, marked: cfg.MarkedBankFraction, powerDown: cfg.PowerDownThreshold,
		speedBin: cfg.SpeedBinFactor, noECCCaching: cfg.DisableECCCaching, openPage: cfg.OpenPage,
	}, true
}

// hash folds the key into 64 bits for the sighting set; never zero, and
// tagged so that it does not collide with a warm key's by construction.
func (k *runKey) hash() uint64 {
	h := hashSpec(0x52554e, &k.spec) // "RUN"
	for i := 0; i < len(k.scheme); i++ {
		h = (h ^ uint64(k.scheme[i])) * 1099511628211
	}
	for _, w := range [...]uint64{
		uint64(k.traffic), uint64(k.linesPerECCLine), math.Float64bits(k.onDieOverhead),
		uint64(k.class), uint64(k.cores), uint64(k.warmup), uint64(k.llcBytes), uint64(k.llcWays),
		uint64(k.seed), math.Float64bits(k.marked), math.Float64bits(k.powerDown),
		math.Float64bits(k.speedBin), boolWord(k.noECCCaching) | boolWord(k.openPage)<<1,
	} {
		h = mix64(h ^ w)
	}
	return h | 1
}

// hashSpec folds a workload spec into h: its name FNV-1a, its parameters
// through mix64.
func hashSpec(h uint64, s *workload.Spec) uint64 {
	h ^= 14695981039346656037 // FNV-1a offset basis
	for i := 0; i < len(s.Name); i++ {
		h = (h ^ uint64(s.Name[i])) * 1099511628211
	}
	for _, w := range [...]uint64{
		math.Float64bits(s.APKI), s.WorkingSetBytes,
		math.Float64bits(s.Seq), math.Float64bits(s.WriteFrac),
		boolWord(s.Parsec)<<1 | boolWord(s.Bin2),
	} {
		h = mix64(h ^ w)
	}
	return h
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

// sightingSet holds the hashes of the last sightCap keys whose warmup or
// run completed, with ring recording their order so the oldest can be
// dropped. An entry is stored on its key's second sighting, not its first,
// so a stream of one-off keys (fresh seeds, interactive probes) pays only
// a probe of this set.
type sightingSet struct {
	mu   sync.Mutex
	seen map[uint64]struct{}
	ring [sightCap]uint64
	next int
}

// sightings is counted across the process, so a key's second sighting is
// seen whichever pooled Arena runs it. It holds only hashes; the entries
// themselves stay in the Arenas.
var sightings sightingSet

// sighted records one sighting of hash h and reports whether h had been
// sighted before.
func (s *sightingSet) sighted(h uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.seen[h]; ok {
		return true
	}
	if s.seen == nil {
		s.seen = make(map[uint64]struct{}, sightCap)
	}
	if old := s.ring[s.next]; old != 0 {
		delete(s.seen, old)
	}
	s.ring[s.next] = h
	s.next = (s.next + 1) % sightCap
	s.seen[h] = struct{}{}
	return false
}

// snap is one stored entry: a warm snapshot (ckpt == false) holds the LLC,
// generators and lastMiss after warmup; an end-of-window checkpoint also
// holds the controller before Finish, the cores, the inflight table and
// the measure loop's lastRelease.
type snap struct {
	ckpt     bool
	warm     warmKey
	run      runKey
	budget   float64
	llc      cache.Snapshot
	gens     []workload.Generator
	lastMiss []uint64

	ctrl        mem.Controller
	cores       []cpu.Core
	inflight    addrTable
	lastRelease float64

	bytes int    // footprint when stored
	used  uint64 // store tick of the last store or hit, for LRU eviction
}

var (
	genBytes  = int(reflect.TypeOf(workload.Generator{}).Size())
	coreBytes = int(reflect.TypeOf(cpu.Core{}).Size()) + 8*cpu.DefaultParams().MaxOutstanding
)

// footprint approximates the bytes the entry's buffers hold, counting
// every buffer whichever kind the entry currently is, since a reused entry
// keeps the buffers of its earlier kind.
func (sn *snap) footprint() int {
	return sn.llc.Footprint() + genBytes*cap(sn.gens) + 8*cap(sn.lastMiss) +
		sn.ctrl.Footprint() + coreBytes*cap(sn.cores) + 16*cap(sn.inflight.keys)
}

// snapStore is an Arena's LRU store of entries, bounded in bytes.
type snapStore struct {
	snaps []*snap
	bytes int // sum of the stored entries' footprints, ≤ storeBytes
	last  int // footprint of the last entry stored: the next one's estimate
	tick  uint64
}

func (s *snapStore) touch(sn *snap) {
	s.tick++
	sn.used = s.tick
}

// warmSnap returns the warm snapshot of k, or nil.
func (s *snapStore) warmSnap(k *warmKey) *snap {
	for _, sn := range s.snaps {
		if !sn.ckpt && sn.warm == *k {
			s.touch(sn)
			return sn
		}
	}
	return nil
}

// checkpoint returns the checkpoint of k with the largest budget not above
// budget, or nil.
func (s *snapStore) checkpoint(k *runKey, budget float64) *snap {
	var best *snap
	for _, sn := range s.snaps {
		if sn.ckpt && sn.budget <= budget && (best == nil || sn.budget > best.budget) && sn.run == *k {
			best = sn
		}
	}
	if best != nil {
		s.touch(best)
	}
	return best
}

// take returns an entry to fill. A resumed run passes the entry it resumed
// from, which is removed and refilled: the run moves its checkpoint
// forward, since a sweep's next run of the key has a longer window still.
// Otherwise it is the least recently used entry, whose buffers are reused,
// when storing another entry of the last one's size would overflow the
// store; else a new one.
func (s *snapStore) take(from *snap) *snap {
	for i, sn := range s.snaps {
		if sn == from {
			return s.removeAt(i)
		}
	}
	if len(s.snaps) == 0 || s.bytes+s.last <= storeBytes {
		return new(snap)
	}
	return s.removeAt(s.lru())
}

// put stores a filled entry as the most recently used and evicts least
// recently used entries until the store fits in storeBytes; an entry
// larger than the whole bound is not kept.
func (s *snapStore) put(sn *snap) {
	s.touch(sn)
	sn.bytes = sn.footprint()
	s.last = sn.bytes
	s.snaps = append(s.snaps, sn)
	s.bytes += sn.bytes
	for s.bytes > storeBytes {
		s.removeAt(s.lru())
	}
}

// lru returns the index of the least recently used entry.
func (s *snapStore) lru() int {
	i := 0
	for j, sn := range s.snaps {
		if sn.used < s.snaps[i].used {
			i = j
		}
	}
	return i
}

// removeAt removes entry i from the store and returns it.
func (s *snapStore) removeAt(i int) *snap {
	sn := s.snaps[i]
	last := len(s.snaps) - 1
	s.snaps[i] = s.snaps[last]
	s.snaps[last] = nil
	s.snaps = s.snaps[:last]
	s.bytes -= sn.bytes
	return sn
}

// saveWarm copies the engine's warm state into sn.
func (a *Arena) saveWarm(e *engine, sn *snap) {
	e.llc.SaveTo(&sn.llc)
	sn.gens = sn.gens[:0]
	for _, g := range a.genPool[:e.cfg.Cores] {
		sn.gens = append(sn.gens, *g)
	}
	sn.lastMiss = append(sn.lastMiss[:0], e.lastMiss...)
}

// restoreWarm copies sn's warm state into the engine.
func (a *Arena) restoreWarm(e *engine, sn *snap) {
	e.llc.Restore(&sn.llc)
	for i := range sn.gens {
		*a.genPool[i] = sn.gens[i]
	}
	copy(e.lastMiss, sn.lastMiss)
}

// warmStart brings a prepared engine to its post-warmup state: by copy
// when the arena holds a snapshot of the same warm key, else by a cold
// reset and a full warmup, snapshotting the result when the key has been
// warmed before. A canceled warmup returns its error and publishes
// nothing.
func (a *Arena) warmStart(ctx context.Context, e *engine) error {
	k, ok := warmKeyOf(e)
	if ok {
		if sn := a.store.warmSnap(&k); sn != nil {
			a.restoreWarm(e, sn)
			return nil
		}
	}
	a.coldStart(e)
	if err := e.warmup(ctx); err != nil {
		return err
	}
	if ok && sightings.sighted(k.hash()) {
		sn := a.store.take(nil)
		sn.ckpt, sn.warm = false, k
		a.saveWarm(e, sn)
		a.store.put(sn)
	}
	return nil
}

// saveCheckpoint stores the engine's state at the end of its measure loop,
// before Finish, as the checkpoint of k at the engine's budget, in place
// of from, the checkpoint the run resumed from, if any.
func (a *Arena) saveCheckpoint(e *engine, k *runKey, lastRelease float64, from *snap) {
	sn := a.store.take(from)
	sn.ckpt, sn.run, sn.budget = true, *k, e.cfg.MeasureCycles
	a.saveWarm(e, sn)
	sn.ctrl.CopyFrom(e.ctrl)
	if len(sn.cores) != len(e.cores) {
		sn.cores = make([]cpu.Core, len(e.cores))
	}
	for i, c := range e.cores {
		sn.cores[i].CopyFrom(c)
	}
	sn.inflight.copyFrom(e.inflight)
	sn.lastRelease = lastRelease
	a.store.put(sn)
}

// resume restores a checkpoint into a prepared engine and returns the
// measure loop's lastRelease to continue from.
func (a *Arena) resume(e *engine, sn *snap) float64 {
	a.restoreWarm(e, sn)
	e.ctrl.CopyFrom(&sn.ctrl)
	for i, c := range e.cores {
		c.CopyFrom(&sn.cores[i])
	}
	e.inflight.copyFrom(&sn.inflight)
	return sn.lastRelease
}
