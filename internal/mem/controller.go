// Package mem implements the multi-channel memory controller model: per-bank
// close-page scheduling with bank- and bus-level contention, rank power-down
// (sleep) management, and DRAMsim-style energy accounting on top of the
// device model in internal/dram.
//
// Time is measured in DRAM clock cycles as float64. The controller models
// the command-level constraints the paper's DRAMsim configuration exercises:
// bank occupancy (tRC under close-page auto-precharge, row-hit reuse under
// open-page), activate spacing (tRRD and the four-activate tFAW window),
// write-to-read turnaround, per-rank staggered refresh blackouts (tREFI /
// tRFC), a backfilling data-bus slot allocator (one burst per tBurst), and
// rank power-down with tXP wake cost — yielding the bank-level-parallelism
// and sleep-residency effects behind Figs. 10–15.
package mem

import (
	"fmt"

	"eccparity/internal/dram"
	"eccparity/internal/stats"
)

// Config describes one memory system build-out.
type Config struct {
	Channels        int
	RanksPerChannel int
	BanksPerRank    int
	Chips           []dram.Chip // device mix of one rank
	Timing          dram.Timing
	// PowerDownThreshold is the idle time in cycles after which a rank
	// enters precharge power-down. The close-page policy exists precisely
	// to make this effective (paper §IV-B).
	PowerDownThreshold float64
	LineBytes          int
	// OpenPage keeps rows open after an access instead of auto-precharging
	// (the paper evaluates close-page; open-page is an ablation). Row hits
	// skip the activate and its energy; row misses pay precharge+activate.
	OpenPage bool
}

// DefaultBanksPerRank is the DDR3 bank count.
const DefaultBanksPerRank = 8

// DefaultPowerDownThreshold is the idle-to-sleep threshold in cycles.
// Close-page auto-precharge leaves a rank precharged right after tRC, so
// the controller can gate the clock almost immediately — this aggressive
// sleep policy is what the paper's close-page configuration is chosen for
// (§IV-B).
const DefaultPowerDownThreshold = 12

// AccessClass tags a request for the traffic breakdown.
type AccessClass int

// Traffic classes: demand traffic vs the ECC-maintenance overhead streams.
const (
	ClassData AccessClass = iota
	ClassECC              // ECC line / GEC / parity-line maintenance
	ClassScrub
	numClasses
)

// Stats accumulates controller-level counters and energy in picojoules.
type Stats struct {
	Reads  [numClasses]uint64
	Writes [numClasses]uint64
	// Dynamic energy: activate plus read/write burst.
	ActivateEnergy float64
	BurstEnergy    float64
	// Background energy: standby, power-down and refresh.
	StandbyEnergy   float64
	PowerDownEnergy float64
	RefreshEnergy   float64
	// Latency bookkeeping for reads (demand class only).
	ReadLatencySum   float64
	ReadLatencyCount uint64
	// ReadLatencyHist captures the demand-read latency distribution.
	ReadLatencyHist stats.Histogram
	// RowHits counts open-page row-buffer hits (zero under close-page).
	RowHits uint64
	// SleepCycles accumulates rank-cycles spent in power-down.
	SleepCycles float64
}

// TotalReads sums reads across classes.
func (s *Stats) TotalReads() uint64 {
	var n uint64
	for _, v := range s.Reads {
		n += v
	}
	return n
}

// TotalWrites sums writes across classes.
func (s *Stats) TotalWrites() uint64 {
	var n uint64
	for _, v := range s.Writes {
		n += v
	}
	return n
}

// DynamicEnergy returns activate+burst energy in pJ.
func (s *Stats) DynamicEnergy() float64 { return s.ActivateEnergy + s.BurstEnergy }

// BackgroundEnergy returns standby+power-down+refresh energy in pJ.
func (s *Stats) BackgroundEnergy() float64 {
	return s.StandbyEnergy + s.PowerDownEnergy + s.RefreshEnergy
}

// TotalEnergy returns all energy in pJ.
func (s *Stats) TotalEnergy() float64 { return s.DynamicEnergy() + s.BackgroundEnergy() }

// rankState tracks one rank's occupancy and background integration.
type rankState struct {
	lastT       float64 // background integrated up to here
	activeUntil float64 // end of the last access's tRAS window (row open)
	busyUntil   float64 // end of the last access's tRC window
}

// Controller is the memory system model.
type Controller struct {
	cfg   Config
	stats Stats

	bankBusy [][]float64 // [channel][rank*banks+bank] busy-until
	openRow  [][]int     // [channel][bank index]: open row (-1 closed), open-page only
	bus      []*busAllocator
	ranks    [][]rankState
	// Inter-command constraint state (the DRAMsim command-level checks).
	lastActs  [][]actWindow // [channel][rank]: recent activates for tRRD/tFAW
	lastWrEnd [][]float64   // [channel][rank]: end of last write burst (tWTR)
	nextRefr  [][]float64   // [channel][rank]: next scheduled refresh start

	// Precomputed per-access rank energies.
	eAct, eRead, eWrite float64
	// Per-rank background power by state (mW) and refresh energy.
	pActive, pStandby, pPowerDown float64
	eRefreshPerRank               float64
}

// NewController builds a controller for the configuration.
func NewController(cfg Config) *Controller {
	c := &Controller{}
	c.Reset(cfg)
	return c
}

// Reset re-initializes the controller for cfg, exactly as NewController
// would, reusing the per-channel state arrays when the topology (channels,
// ranks, banks) matches the previous configuration. The energy
// coefficients are always recomputed (cheap), so a reused controller may
// change device mix, timing or policy between runs. The data-bus rings
// keep any grown capacity — slot allocation is capacity-independent — so a
// reused controller produces bit-identical timing to a fresh one.
func (c *Controller) Reset(cfg Config) {
	if cfg.Channels <= 0 || cfg.RanksPerChannel <= 0 || cfg.BanksPerRank <= 0 || len(cfg.Chips) == 0 {
		panic(fmt.Sprintf("mem: invalid config %+v", cfg))
	}
	sameShape := c.cfg.Channels == cfg.Channels &&
		c.cfg.RanksPerChannel == cfg.RanksPerChannel &&
		c.cfg.BanksPerRank == cfg.BanksPerRank &&
		c.bankBusy != nil
	c.cfg = cfg
	c.stats = Stats{}
	if !sameShape {
		c.bankBusy = make([][]float64, cfg.Channels)
		c.bus = make([]*busAllocator, cfg.Channels)
		c.openRow = make([][]int, cfg.Channels)
		c.ranks = make([][]rankState, cfg.Channels)
		c.lastActs = make([][]actWindow, cfg.Channels)
		c.lastWrEnd = make([][]float64, cfg.Channels)
		c.nextRefr = make([][]float64, cfg.Channels)
		for ch := 0; ch < cfg.Channels; ch++ {
			c.bankBusy[ch] = make([]float64, cfg.RanksPerChannel*cfg.BanksPerRank)
			c.openRow[ch] = make([]int, cfg.RanksPerChannel*cfg.BanksPerRank)
			c.bus[ch] = newBusAllocator(cfg.Timing.TBurst)
			c.ranks[ch] = make([]rankState, cfg.RanksPerChannel)
			c.lastActs[ch] = make([]actWindow, cfg.RanksPerChannel)
			c.lastWrEnd[ch] = make([]float64, cfg.RanksPerChannel)
			c.nextRefr[ch] = make([]float64, cfg.RanksPerChannel)
		}
	}
	for ch := 0; ch < cfg.Channels; ch++ {
		clear(c.bankBusy[ch])
		for i := range c.openRow[ch] {
			c.openRow[ch][i] = -1
		}
		c.bus[ch].reset(cfg.Timing.TBurst)
		clear(c.ranks[ch])
		for r := range c.lastActs[ch] {
			c.lastActs[ch][r].reset()
			c.lastActs[ch][r].idx = 0
		}
		for r := range c.lastWrEnd[ch] {
			c.lastWrEnd[ch][r] = negInf
		}
		for r := range c.nextRefr[ch] {
			// Stagger refresh across ranks, as controllers do.
			c.nextRefr[ch][r] = float64(cfg.Timing.TREFI) * (1 + float64(r)/float64(cfg.RanksPerChannel))
		}
	}
	c.eAct, c.eRead, c.eWrite = 0, 0, 0
	c.pActive, c.pStandby, c.pPowerDown = 0, 0, 0
	c.eRefreshPerRank = 0
	for _, chip := range cfg.Chips {
		c.eAct += chip.ActivateEnergy(cfg.Timing)
		c.eRead += chip.ReadBurstEnergy(cfg.Timing)
		c.eWrite += chip.WriteBurstEnergy(cfg.Timing)
		c.pActive += chip.BackgroundPower(dram.StateActiveStandby)
		c.pStandby += chip.BackgroundPower(dram.StatePrechargeStandby)
		c.pPowerDown += chip.BackgroundPower(dram.StatePowerDown)
		c.eRefreshPerRank += chip.RefreshEnergy(cfg.Timing)
	}
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns the accumulated statistics (call Finish first to close the
// background-energy integration).
func (c *Controller) Stats() *Stats { return &c.stats }

// Access issues one line-sized request under the close-page policy (row 0).
// It returns the cycle at which read data is available (or the write burst
// completes). The caller provides the physical location; address mapping
// lives in the simulator.
func (c *Controller) Access(now float64, channel, rank, bank int, write bool, class AccessClass) float64 {
	return c.AccessRow(now, channel, rank, bank, 0, write, class)
}

// AccessRow issues one request with an explicit row address, enabling the
// open-page policy's row-hit detection.
func (c *Controller) AccessRow(now float64, channel, rank, bank, row int, write bool, class AccessClass) float64 {
	t := c.cfg.Timing
	rs := &c.ranks[channel][rank]

	// Integrate this rank's background energy up to the arrival.
	wasAsleep := c.integrateRank(rs, now)

	start := now
	if wasAsleep {
		start += float64(t.TXP)
	}
	bi := rank*c.cfg.BanksPerRank + bank
	if bb := c.bankBusy[channel][bi]; bb > start {
		start = bb
	}

	// Row-buffer handling: under open-page, a hit skips the activate and
	// a conflict pays precharge before activating; under close-page every
	// access activates a closed row.
	rowHit := false
	preDelay := 0.0
	if c.cfg.OpenPage {
		switch c.openRow[channel][bi] {
		case row:
			rowHit = true
		case -1:
			// Bank closed: plain activate.
		default:
			preDelay = float64(t.TRP) // conflict: precharge first
		}
		c.openRow[channel][bi] = row
	}

	if !rowHit {
		// DRAMsim-style inter-command constraints on the activate:
		// tRRD (rank-level activate spacing), tFAW (≤4 activates per
		// rolling window), write-to-read turnaround, refresh blackouts.
		start = c.lastActs[channel][rank].constrain(start, t)
		if wr := c.lastWrEnd[channel][rank] + float64(t.TWR); !write && wr > start {
			start = wr
		}
		start = c.refreshDelay(channel, rank, start)
		c.lastActs[channel][rank].record(start + preDelay)
	}

	// CAS position: after the activate (row miss) or immediately (row
	// hit); the data burst must win a free slot on the channel bus, which
	// pipelines across banks. The allocator backfills idle slots, so a
	// bank-delayed request never blocks the rest of the channel.
	casDone := start
	if !rowHit {
		casDone = start + preDelay + float64(t.TRCD)
	}
	var earliest float64
	if write {
		earliest = casDone + float64(t.CWL)
	} else {
		earliest = casDone + float64(t.CL)
	}
	burstStart := c.bus[channel].alloc(earliest)
	done := burstStart + float64(t.TBurst)
	if write {
		c.lastWrEnd[channel][rank] = done
	}

	// Bank occupancy: close-page holds the bank for the full row cycle
	// (plus write recovery); open-page frees the bank for new CAS commands
	// right after the burst, but keeps the row (and rank) active.
	var busy float64
	if c.cfg.OpenPage {
		busy = done
		if write {
			busy += float64(t.TWR)
		}
		if a := done + float64(t.TRAS); a > rs.activeUntil {
			rs.activeUntil = a
		}
	} else {
		busy = start + float64(t.TRC)
		if write {
			if wb := burstStart + float64(t.TBurst) + float64(t.TWR) + float64(t.TRP); wb > busy {
				busy = wb
			}
		}
		if a := start + float64(t.TRAS); a > rs.activeUntil {
			rs.activeUntil = a
		}
	}
	c.bankBusy[channel][bi] = busy
	if busy > rs.busyUntil {
		rs.busyUntil = busy
	}

	// Dynamic energy: row hits skip the activate and its energy.
	if rowHit {
		c.stats.RowHits++
	} else {
		c.stats.ActivateEnergy += c.eAct
	}
	if write {
		c.stats.BurstEnergy += c.eWrite
		c.stats.Writes[class]++
	} else {
		c.stats.BurstEnergy += c.eRead
		c.stats.Reads[class]++
		if class == ClassData {
			c.stats.ReadLatencySum += done - now
			c.stats.ReadLatencyCount++
			c.stats.ReadLatencyHist.Add(done - now)
		}
	}
	return done
}

// Release tells the controller that no future Access/AccessRow will arrive
// with a `now` earlier than the given time, letting every channel's bus
// allocator retire the slot bookkeeping below that horizon. The engine
// calls this as its global arrival floor advances; correctness only, no
// timing effect.
func (c *Controller) Release(now float64) {
	floor := int64(now / float64(c.cfg.Timing.TBurst))
	for _, b := range c.bus {
		b.retire(floor)
	}
}

// negInf marks "never happened" for constraint registers.
const negInf = -1e18

// actWindow tracks the four most recent activate times of a rank for the
// tRRD and tFAW constraints (at most four activates per tFAW window).
type actWindow struct {
	times [4]float64
	idx   int
}

// reset marks all slots as never-activated.
func (w *actWindow) reset() {
	for i := range w.times {
		w.times[i] = negInf
	}
}

// constrain returns the earliest time ≥ start at which a new activate may
// issue to this rank.
func (w *actWindow) constrain(start float64, t dram.Timing) float64 {
	last := w.times[(w.idx+3)%4]
	if v := last + float64(t.TRRD); v > start {
		start = v
	}
	// The oldest of the last four activates bounds the tFAW window.
	tfaw := 4 * float64(t.TRRD) * 1.25 // DDR3: tFAW ≈ 5·tRRD
	if v := w.times[w.idx] + tfaw; v > start {
		start = v
	}
	return start
}

// record notes an activate at time at.
func (w *actWindow) record(at float64) {
	w.times[w.idx] = at
	w.idx = (w.idx + 1) % 4
}

// refreshDelay pushes start past any refresh blackout and advances the
// rank's refresh schedule (all-bank refresh every tREFI, lasting tRFC).
func (c *Controller) refreshDelay(channel, rank int, start float64) float64 {
	t := c.cfg.Timing
	for c.nextRefr[channel][rank] <= start {
		refStart := c.nextRefr[channel][rank]
		refEnd := refStart + float64(t.TRFC)
		if start < refEnd {
			start = refEnd
		}
		c.nextRefr[channel][rank] += float64(t.TREFI)
	}
	return start
}

// integrateRank accumulates background energy for [rs.lastT, now] and
// reports whether the rank was in power-down when the new request arrived.
func (c *Controller) integrateRank(rs *rankState, now float64) bool {
	if now <= rs.lastT {
		return false
	}
	t := c.cfg.Timing
	asleep := false

	// Row-open portion (up to tRAS after the last activate) bills active
	// standby; the precharge tail of the tRC window bills precharge
	// standby — close-page auto-precharge closes the row at tRAS.
	from := rs.lastT
	if rs.activeUntil > from {
		end := rs.activeUntil
		if end > now {
			end = now
		}
		c.stats.StandbyEnergy += c.pActive * (end - from) * t.TCKNs
		from = end
	}
	if rs.busyUntil > from {
		end := rs.busyUntil
		if end > now {
			end = now
		}
		c.stats.StandbyEnergy += c.pStandby * (end - from) * t.TCKNs
		from = end
	}
	if from < now {
		idle := now - from
		if idle <= c.cfg.PowerDownThreshold {
			c.stats.StandbyEnergy += c.pStandby * idle * t.TCKNs
		} else {
			c.stats.StandbyEnergy += c.pStandby * c.cfg.PowerDownThreshold * t.TCKNs
			sleep := idle - c.cfg.PowerDownThreshold
			c.stats.PowerDownEnergy += c.pPowerDown * sleep * t.TCKNs
			c.stats.SleepCycles += sleep
			asleep = true
		}
	}
	rs.lastT = now
	return asleep
}

// Finish closes background integration at endCycle and adds refresh energy
// for the whole run. Call exactly once, after the last Access.
func (c *Controller) Finish(endCycle float64) {
	for ch := range c.ranks {
		for r := range c.ranks[ch] {
			c.integrateRank(&c.ranks[ch][r], endCycle)
		}
	}
	refreshes := endCycle / float64(c.cfg.Timing.TREFI)
	totalRanks := float64(c.cfg.Channels * c.cfg.RanksPerChannel)
	c.stats.RefreshEnergy += refreshes * totalRanks * c.eRefreshPerRank
}

// AvgReadLatency returns the mean demand-read latency in cycles.
func (s *Stats) AvgReadLatency() float64 {
	if s.ReadLatencyCount == 0 {
		return 0
	}
	return s.ReadLatencySum / float64(s.ReadLatencyCount)
}

// CopyFrom makes c an exact copy of src: configuration, counters, energy
// coefficients and every scheduling register, bus rings included at their
// own capacity. It reuses c's arrays where they are large enough, so a
// controller kept as a checkpoint costs no allocation once warm. A
// controller restored this way continues exactly as src would.
func (c *Controller) CopyFrom(src *Controller) {
	bankBusy, openRow, bus, ranks := c.bankBusy, c.openRow, c.bus, c.ranks
	lastActs, lastWrEnd, nextRefr := c.lastActs, c.lastWrEnd, c.nextRefr
	*c = *src
	c.bankBusy = copyRows(bankBusy, src.bankBusy)
	c.openRow = copyRows(openRow, src.openRow)
	c.ranks = copyRows(ranks, src.ranks)
	c.lastActs = copyRows(lastActs, src.lastActs)
	c.lastWrEnd = copyRows(lastWrEnd, src.lastWrEnd)
	c.nextRefr = copyRows(nextRefr, src.nextRefr)
	if len(bus) != len(src.bus) {
		bus = make([]*busAllocator, len(src.bus))
	}
	for i, b := range src.bus {
		if bus[i] == nil {
			bus[i] = new(busAllocator)
		}
		bus[i].copyFrom(b)
	}
	c.bus = bus
}

// Footprint approximates the bytes of state CopyFrom copies.
func (c *Controller) Footprint() int {
	n := 0
	for ch := range c.bankBusy {
		n += 8*len(c.bankBusy[ch]) + 8*len(c.openRow[ch]) + 24*len(c.ranks[ch]) +
			40*len(c.lastActs[ch]) + 16*len(c.nextRefr[ch])
	}
	for _, b := range c.bus {
		n += 8 * len(b.next)
	}
	return n
}

// copyRows copies a per-channel table into dst's rows, reusing them.
func copyRows[T any](dst, src [][]T) [][]T {
	if len(dst) != len(src) {
		dst = make([][]T, len(src))
	}
	for i, row := range src {
		dst[i] = append(dst[i][:0], row...)
	}
	return dst
}
