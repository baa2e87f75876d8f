package workload

import (
	"math"
	"math/rand"
	"testing"
)

// rngTestSeeds covers zero, negative seeds, seeds at and around the
// int32max modulus the seeding folds by, the extremes of int64, and a
// spread of ordinary values: 56 seeds in all.
func rngTestSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2, 42, -42, 1000003, -1000003,
		int32max, -int32max, int32max + 1, -(int32max + 1), 2 * int32max,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
		89482311, -89482311,
	}
	r := rand.New(rand.NewSource(7))
	for len(seeds) < 56 {
		s := r.Int63()
		if len(seeds)%2 == 1 {
			s = -s
		}
		seeds = append(seeds, s)
	}
	return seeds
}

const rngTestDraws = 100000

// TestRNGMatchesMathRand pins the ported source to math/rand's stream: for
// every seed, each method the generator uses returns bit-identical values
// to rand.New(rand.NewSource(seed)) over 100k draws.
func TestRNGMatchesMathRand(t *testing.T) {
	type method struct {
		name string
		want func(*rand.Rand) uint64
		got  func(*rngSource) uint64
	}
	methods := []method{
		{"Int63", func(r *rand.Rand) uint64 { return uint64(r.Int63()) }, func(s *rngSource) uint64 { return uint64(s.int63()) }},
		{"Int63n(1<<20)", func(r *rand.Rand) uint64 { return uint64(r.Int63n(1 << 20)) }, func(s *rngSource) uint64 { return uint64(s.int63n(1 << 20)) }},
		{"Int63n(3)", func(r *rand.Rand) uint64 { return uint64(r.Int63n(3)) }, func(s *rngSource) uint64 { return uint64(s.int63n(3)) }},
		// A bound just over 2^62 rejects about a quarter of draws, so the
		// resample loop runs constantly.
		{"Int63n(1<<62+1)", func(r *rand.Rand) uint64 { return uint64(r.Int63n(1<<62 + 1)) }, func(s *rngSource) uint64 { return uint64(s.int63n(1<<62 + 1)) }},
		{"Float64", func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) }, func(s *rngSource) uint64 { return math.Float64bits(s.float64()) }},
		{"ExpFloat64", func(r *rand.Rand) uint64 { return math.Float64bits(r.ExpFloat64()) }, func(s *rngSource) uint64 { return math.Float64bits(s.expFloat64()) }},
	}
	for _, seed := range rngTestSeeds() {
		for _, m := range methods {
			want := rand.New(rand.NewSource(seed))
			var got rngSource
			got.seed(seed)
			for i := 0; i < rngTestDraws; i++ {
				if w, g := m.want(want), m.got(&got); w != g {
					t.Fatalf("seed %d %s draw %d: got %#x, math/rand %#x", seed, m.name, i, g, w)
				}
			}
		}
	}
}

// TestRNGMixedStream interleaves the methods the way Generator.Next does,
// so a divergence in how many words a method consumes shows up too.
func TestRNGMixedStream(t *testing.T) {
	for _, seed := range rngTestSeeds() {
		want := rand.New(rand.NewSource(seed))
		var got rngSource
		got.seed(seed)
		for i := 0; i < rngTestDraws/4; i++ {
			if w, g := want.ExpFloat64(), got.expFloat64(); w != g {
				t.Fatalf("seed %d draw %d ExpFloat64: got %v, math/rand %v", seed, i, g, w)
			}
			if w, g := want.Float64(), got.float64(); w != g {
				t.Fatalf("seed %d draw %d Float64: got %v, math/rand %v", seed, i, g, w)
			}
			if w, g := want.Int63n(1000003), got.int63n(1000003); w != g {
				t.Fatalf("seed %d draw %d Int63n: got %d, math/rand %d", seed, i, g, w)
			}
		}
	}
}

// TestRNGCopyContinuesStream checks the property the engine's warm-state
// checkpoints rely on: a copied source continues the original's stream
// exactly, and drawing from the copy leaves the original untouched.
func TestRNGCopyContinuesStream(t *testing.T) {
	for _, seed := range rngTestSeeds() {
		var orig rngSource
		orig.seed(seed)
		// Advance past a full lag cycle so the copy is taken mid-register.
		for i := 0; i < 3*rngLen+11; i++ {
			orig.int63()
		}
		cp := orig
		ref := orig
		for i := 0; i < 2*rngLen; i++ {
			if w, g := ref.int63(), cp.int63(); w != g {
				t.Fatalf("seed %d draw %d after copy: copy %d, original %d", seed, i, g, w)
			}
		}
		// orig itself was never drawn from after the copies: it must still
		// produce the same continuation.
		again := orig
		for i := 0; i < 2*rngLen; i++ {
			if w, g := again.int63(), orig.int63(); w != g {
				t.Fatalf("seed %d draw %d: original moved when its copy was drawn from", seed, i)
			}
		}
	}
}

// TestGeneratorCopyContinuesStream lifts the copy property to Generator:
// a Generator assigned by value emits the same accesses as the original.
func TestGeneratorCopyContinuesStream(t *testing.T) {
	for _, spec := range Specs() {
		g := NewGenerator(spec, 3, -17)
		for i := 0; i < 5000; i++ {
			g.Next()
		}
		cp := *g
		for i := 0; i < 5000; i++ {
			if w, c := g.Next(), cp.Next(); w != c {
				t.Fatalf("%s access %d: copy %+v, original %+v", spec.Name, i, c, w)
			}
		}
	}
}
