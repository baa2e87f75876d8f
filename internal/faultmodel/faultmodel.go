// Package faultmodel implements the DRAM device-failure model used by the
// paper's reliability studies: per-chip FIT rates split by fault granularity
// (after the Sridharan et al. DDR3 field studies the paper cites), an
// exponential/Poisson arrival process, and Monte Carlo simulation of
// multi-year system lifetimes over configurable channel/rank/chip
// topologies.
//
// It regenerates Fig. 2 (mean time between faults in different channels),
// Fig. 8 (fraction of memory with materialized correction bits at end of
// life), Fig. 18 (probability of faults in more than one channel within a
// scrub window), and the EOL columns of Table III.
package faultmodel

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"eccparity/internal/parallel"
)

// FaultType is the granularity of a DRAM device fault.
type FaultType int

// Fault granularities, small to large. The paper's error-counter threshold
// exists precisely to separate the first four (handled by page retirement)
// from the device-level ones (which mark a bank pair as faulty).
const (
	FaultBit FaultType = iota
	FaultWord
	FaultColumn
	FaultRow
	FaultBank
	FaultMultiBank
	FaultMultiRank
	numFaultTypes
)

// String returns the conventional name of the fault type.
func (t FaultType) String() string {
	switch t {
	case FaultBit:
		return "bit"
	case FaultWord:
		return "word"
	case FaultColumn:
		return "column"
	case FaultRow:
		return "row"
	case FaultBank:
		return "bank"
	case FaultMultiBank:
		return "multi-bank"
	case FaultMultiRank:
		return "multi-rank"
	}
	return "unknown"
}

// IsLarge reports whether the fault is device-level, i.e. expected to
// saturate a bank pair's error counter and trigger materialization of the
// ECC correction bits (§III-C).
func (t FaultType) IsLarge() bool { return t >= FaultBank }

// Rates holds the per-chip FIT (failures per 10^9 device-hours) of each
// fault type.
type Rates [numFaultTypes]float64

// Total returns the summed per-chip FIT.
func (r Rates) Total() float64 {
	var s float64
	for _, v := range r {
		s += v
	}
	return s
}

// Scaled returns the rates scaled so the total equals fit.
func (r Rates) Scaled(fit float64) Rates {
	t := r.Total()
	var out Rates
	for i, v := range r {
		out[i] = v * fit / t
	}
	return out
}

// DefaultRates approximates the vendor-average DDR3 fault mix of Sridharan
// et al. (the paper's reference [21]) normalized to the paper's quoted
// average of 44 FIT per chip. The split (≈40% bit, 2% word, 12% column,
// 18% row, 22% bank, 3.5% multi-bank, 2.5% multi-rank) follows the relative
// magnitudes reported in the field studies.
func DefaultRates() Rates {
	return Rates{
		FaultBit:       17.6,
		FaultWord:      0.9,
		FaultColumn:    5.3,
		FaultRow:       7.9,
		FaultBank:      9.7,
		FaultMultiBank: 1.5,
		FaultMultiRank: 1.1,
	}
}

// Topology describes a memory system for the reliability model.
type Topology struct {
	Channels        int
	RanksPerChannel int
	ChipsPerRank    int
	BanksPerRank    int // rank-level banks (DDR3: 8)
}

// PaperTopology returns the configuration used throughout the paper's
// reliability sections: four ranks per channel, nine chips per rank,
// eight banks.
func PaperTopology(channels int) Topology {
	return Topology{Channels: channels, RanksPerChannel: 4, ChipsPerRank: 9, BanksPerRank: 8}
}

// ChipsPerChannel returns the device count of one channel.
func (t Topology) ChipsPerChannel() int { return t.RanksPerChannel * t.ChipsPerRank }

// TotalChips returns the device count of the system.
func (t Topology) TotalChips() int { return t.Channels * t.ChipsPerChannel() }

// TotalBanks returns the rank-level bank count of the system.
func (t Topology) TotalBanks() int { return t.Channels * t.RanksPerChannel * t.BanksPerRank }

// HoursPerYear is the conversion used throughout (365.25 days).
const HoursPerYear = 8766.0

// Fault is one sampled device fault.
type Fault struct {
	Time    float64 // hours since system start
	Type    FaultType
	Channel int
	Rank    int
	Chip    int
	Bank    int // primary affected rank-level bank
}

// Model samples fault sequences for a topology. A Model holds no mutable
// state — randomness is passed into each sampling call — so one Model is
// safe to share across concurrent Monte Carlo trials; each trial owns a
// private RNG derived with TrialSeed.
type Model struct {
	Topo  Topology
	Rates Rates
}

// NewModel builds a sampler for the topology.
func NewModel(topo Topology, rates Rates) *Model {
	return &Model{Topo: topo, Rates: rates}
}

// trialSeedPrime spreads trial indices across the seed space (the golden-
// ratio prime ⌊2^32/φ⌋).
const trialSeedPrime = 2654435761

// TrialSeed derives the private RNG seed of Monte Carlo trial i from a
// campaign seed. A trial's random stream depends only on (seed, trial) —
// never on scheduling or worker count — which is what makes campaign
// results bit-identical whether they run on one goroutine or NumCPU.
func TrialSeed(seed int64, trial int) int64 {
	return seed ^ int64(trial)*trialSeedPrime
}

// SampleLifetime draws the system's fault sequence over the given horizon
// as a Poisson process with the model's aggregate rate; each fault is
// attributed to a uniformly random chip and typed by the rate mix. The
// caller owns rng — per-trial generators keep concurrent trials independent
// and deterministic.
func (m *Model) SampleLifetime(rng *rand.Rand, hours float64) []Fault {
	lambda := m.Rates.Total() * 1e-9 * float64(m.Topo.TotalChips()) // faults per hour
	var faults []Fault
	t := 0.0
	for {
		t += rng.ExpFloat64() / lambda
		if t > hours {
			break
		}
		faults = append(faults, m.sampleFault(rng, t))
	}
	return faults
}

// sampleFault places one fault at time t.
func (m *Model) sampleFault(rng *rand.Rand, t float64) Fault {
	f := Fault{
		Time:    t,
		Type:    m.sampleType(rng),
		Channel: rng.Intn(m.Topo.Channels),
		Rank:    rng.Intn(m.Topo.RanksPerChannel),
		Chip:    rng.Intn(m.Topo.ChipsPerRank),
		Bank:    rng.Intn(m.Topo.BanksPerRank),
	}
	return f
}

func (m *Model) sampleType(rng *rand.Rand) FaultType {
	x := rng.Float64() * m.Rates.Total()
	for i, v := range m.Rates {
		if x < v {
			return FaultType(i)
		}
		x -= v
	}
	return FaultType(numFaultTypes - 1)
}

// AffectedBanks returns the rank-level banks whose bank pair would be
// marked faulty by this fault, per the paper's policy: only device-level
// faults mark banks; a bank fault marks its bank, a multi-bank fault marks
// a contiguous half of the chip's banks, and a multi-rank fault marks every
// bank of two adjacent ranks.
func (f Fault) AffectedBanks(topo Topology) []BankID {
	switch f.Type {
	case FaultBank:
		return []BankID{{f.Channel, f.Rank, f.Bank}}
	case FaultMultiBank:
		n := topo.BanksPerRank / 2
		start := (f.Bank / n) * n
		out := make([]BankID, 0, n)
		for b := start; b < start+n; b++ {
			out = append(out, BankID{f.Channel, f.Rank, b})
		}
		return out
	case FaultMultiRank:
		r2 := (f.Rank + 1) % topo.RanksPerChannel
		out := make([]BankID, 0, 2*topo.BanksPerRank)
		for b := 0; b < topo.BanksPerRank; b++ {
			out = append(out, BankID{f.Channel, f.Rank, b}, BankID{f.Channel, r2, b})
		}
		return out
	default:
		return nil
	}
}

// BankID identifies one rank-level bank in the system.
type BankID struct {
	Channel, Rank, Bank int
}

// PairID returns the bank-pair identifier the error counters track (banks
// are paired with their neighbour within the same rank, §III-B).
func (b BankID) PairID() BankID {
	return BankID{b.Channel, b.Rank, b.Bank &^ 1}
}

// MeanTimeBetweenChannelFaults returns the expected time in hours between
// consecutive faults that land in *different* channels, for a per-chip rate
// of fit (Fig. 2): the system inter-fault time scaled by the probability
// that the next fault hits another channel.
func MeanTimeBetweenChannelFaults(fit float64, topo Topology) float64 {
	lambda := fit * 1e-9 * float64(topo.TotalChips())
	pDifferent := float64(topo.Channels-1) / float64(topo.Channels)
	return 1 / (lambda * pDifferent)
}

// ProbMultiChannelInWindow returns the probability that, somewhere within a
// lifetime of lifetimeHours, two or more channels develop faults inside the
// same detection window of windowHours (Fig. 18). Analytic form: per
// window, channels fault independently with p = 1−exp(−λ_chan·w); the
// lifetime is lifetimeHours/windowHours independent windows.
func ProbMultiChannelInWindow(fit float64, topo Topology, windowHours, lifetimeHours float64) float64 {
	lambdaChan := fit * 1e-9 * float64(topo.ChipsPerChannel())
	p := 1 - math.Exp(-lambdaChan*windowHours)
	n := topo.Channels
	// P(≥2 channels fault in one window) = 1 − (1−p)^n − n·p·(1−p)^(n−1).
	pw := 1 - math.Pow(1-p, float64(n)) - float64(n)*p*math.Pow(1-p, float64(n-1))
	windows := lifetimeHours / windowHours
	return 1 - math.Pow(1-pw, windows)
}

// EOLResult summarizes a Monte Carlo end-of-life study (Fig. 8).
type EOLResult struct {
	MeanFraction float64 // average fraction of memory with correction bits
	P999Fraction float64 // 99.9th percentile across simulated systems
	Fractions    []float64
}

// SimulateEOLContext runs trials independent 7-year (or custom-horizon)
// system lifetimes and reports the fraction of memory whose bank pairs were
// marked faulty — i.e. ended up with the actual ECC correction bits stored
// in memory rather than ECC parities. Trials fan out over at most workers
// goroutines (≤0 means NumCPU); each trial's RNG derives from TrialSeed, so
// the result is bit-identical at any worker count. The trial pool polls ctx
// between trials and returns ctx's error once canceled, discarding any
// partial campaign.
func SimulateEOLContext(ctx context.Context, topo Topology, rates Rates, hours float64, trials int, seed int64, workers int) (EOLResult, error) {
	if trials <= 0 {
		return EOLResult{}, nil
	}
	m := NewModel(topo, rates)
	fractions, err := parallel.CollectCtx(ctx, trials, workers, func(i int) float64 {
		rng := rand.New(rand.NewSource(TrialSeed(seed, i)))
		faults := m.SampleLifetime(rng, hours)
		marked := map[BankID]bool{}
		for _, f := range faults {
			for _, b := range f.AffectedBanks(topo) {
				p := b.PairID()
				marked[p] = true
				marked[BankID{p.Channel, p.Rank, p.Bank + 1}] = true
			}
		}
		return float64(len(marked)) / float64(topo.TotalBanks())
	})
	if err != nil {
		return EOLResult{}, err
	}
	sort.Float64s(fractions)
	var sum float64
	for _, f := range fractions {
		sum += f
	}
	idx := int(math.Ceil(0.999*float64(trials))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= trials {
		idx = trials - 1
	}
	return EOLResult{
		MeanFraction: sum / float64(trials),
		P999Fraction: fractions[idx],
		Fractions:    fractions,
	}, nil
}

// MeasureChannelFaultGapsContext runs a Monte Carlo estimate of the Fig. 2
// quantity: the mean time between consecutive faults in different channels.
// Trials fan out over at most workers goroutines (≤0 means NumCPU);
// per-trial partial sums are reduced in trial order so the result is
// bit-identical at any worker count. The trial pool polls ctx between
// trials and returns ctx's error once canceled.
func MeasureChannelFaultGapsContext(ctx context.Context, fit float64, topo Topology, trials int, seed int64, workers int) (float64, error) {
	m := NewModel(topo, DefaultRates().Scaled(fit))
	// Long horizon so that most trials observe several faults.
	horizon := 400 * HoursPerYear
	type gapSum struct {
		sum float64
		n   int
	}
	parts, err := parallel.CollectCtx(ctx, trials, workers, func(i int) gapSum {
		rng := rand.New(rand.NewSource(TrialSeed(seed, i)))
		faults := m.SampleLifetime(rng, horizon)
		// For each fault, the time until the NEXT fault in a different
		// channel (skipping same-channel arrivals), matching the paper's
		// "mean time between faults in different channels".
		var g gapSum
		for j := 0; j < len(faults); j++ {
			for k := j + 1; k < len(faults); k++ {
				if faults[k].Channel != faults[j].Channel {
					g.sum += faults[k].Time - faults[j].Time
					g.n++
					break
				}
			}
		}
		return g
	})
	if err != nil {
		return 0, err
	}
	var sum float64
	var n int
	for _, g := range parts {
		sum += g.sum
		n += g.n
	}
	if n == 0 {
		return math.Inf(1), nil
	}
	return sum / float64(n), nil
}
