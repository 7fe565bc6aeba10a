// Package config defines the simulated GPU architecture configuration.
//
// The default values in Baseline() correspond to Table 1 of the paper
// "Adaptive Memory-Side Last-Level GPU Caching" (ISCA 2019): an 80-SM GPU
// clocked at 1400 MHz with 8 memory controllers, 8 LLC slices per memory
// controller (6 MB total LLC), a crossbar NoC with 32-byte channels and a
// 900 GB/s GDDR5 memory system.
package config

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// LLCMode selects how the memory-side LLC is organized.
type LLCMode int

const (
	// LLCShared is the conventional organization: every LLC slice is shared
	// by all SMs and the slice for a line is selected by address bits.
	LLCShared LLCMode = iota
	// LLCPrivate makes each LLC slice private to one cluster of SMs; the
	// slice for a request is selected by the cluster ID of the requester.
	LLCPrivate
	// LLCAdaptive starts shared and reconfigures between shared and private
	// at runtime using the paper's profiling-driven transition rules.
	LLCAdaptive
)

func (m LLCMode) String() string {
	switch m {
	case LLCShared:
		return "shared"
	case LLCPrivate:
		return "private"
	case LLCAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("LLCMode(%d)", int(m))
	}
}

// ParseLLCMode is the inverse of LLCMode.String.
func ParseLLCMode(s string) (LLCMode, error) {
	return parseEnum("LLC mode", s, LLCShared, LLCPrivate, LLCAdaptive)
}

// parseEnum inverts String over an enum's values, so a name parses exactly
// where it prints; an unknown name is rejected with the accepted list.
func parseEnum[T fmt.Stringer](what, s string, values ...T) (T, error) {
	for _, v := range values {
		if v.String() == s {
			return v, nil
		}
	}
	names := make([]string, len(values))
	for i, v := range values {
		names[i] = v.String()
	}
	var zero T
	return zero, fmt.Errorf("unknown %s %q (want %s)", what, s, strings.Join(names, ", "))
}

// NoCTopology selects the interconnect between SM clusters and LLC slices.
type NoCTopology int

const (
	// NoCHierarchical is the paper's H-Xbar: a two-stage crossbar with
	// SM-routers (one per cluster) and MC-routers (one per memory
	// controller). This is the baseline NoC of the paper.
	NoCHierarchical NoCTopology = iota
	// NoCFull is a single full crossbar connecting every SM to every LLC
	// slice.
	NoCFull
	// NoCConcentrated is a concentrated crossbar (C-Xbar) in which several
	// SMs and several LLC slices share one network port each.
	NoCConcentrated
	// NoCIdeal is an infinite-bandwidth, fixed-latency interconnect used
	// for ablation studies only.
	NoCIdeal
)

func (t NoCTopology) String() string {
	switch t {
	case NoCHierarchical:
		return "h-xbar"
	case NoCFull:
		return "full-xbar"
	case NoCConcentrated:
		return "c-xbar"
	case NoCIdeal:
		return "ideal"
	default:
		return fmt.Sprintf("NoCTopology(%d)", int(t))
	}
}

// ParseNoCTopology is the inverse of NoCTopology.String.
func ParseNoCTopology(s string) (NoCTopology, error) {
	return parseEnum("NoC topology", s, NoCHierarchical, NoCFull, NoCConcentrated, NoCIdeal)
}

// AddressMapping selects how physical addresses map to memory controllers,
// LLC slices, banks and rows.
type AddressMapping int

const (
	// MappingPAE is the page-address-entropy scheme used as the paper's
	// default; it XOR-folds higher address bits into the channel and bank
	// bits to spread accesses uniformly.
	MappingPAE AddressMapping = iota
	// MappingHynix mimics the Hynix GDDR5 data-sheet mapping, which uses
	// plain low-order bit slicing and therefore can create channel/bank
	// imbalance.
	MappingHynix
)

func (a AddressMapping) String() string {
	switch a {
	case MappingPAE:
		return "pae"
	case MappingHynix:
		return "hynix"
	default:
		return fmt.Sprintf("AddressMapping(%d)", int(a))
	}
}

// ParseAddressMapping is the inverse of AddressMapping.String.
func ParseAddressMapping(s string) (AddressMapping, error) {
	return parseEnum("address mapping", s, MappingPAE, MappingHynix)
}

// CTASchedulerKind selects the CTA-to-SM assignment policy.
type CTASchedulerKind int

const (
	// CTATwoLevelRR distributes CTAs round-robin across clusters and then
	// round-robin across the SMs of each cluster (paper default).
	CTATwoLevelRR CTASchedulerKind = iota
	// CTABlock (BCS) maps adjacent CTAs to the same SM to improve L1
	// locality.
	CTABlock
	// CTADistributed (DCS) divides the CTA space evenly across clusters so
	// that adjacent CTAs land in the same cluster.
	CTADistributed
)

func (c CTASchedulerKind) String() string {
	switch c {
	case CTATwoLevelRR:
		return "two-level-rr"
	case CTABlock:
		return "bcs"
	case CTADistributed:
		return "dcs"
	default:
		return fmt.Sprintf("CTASchedulerKind(%d)", int(c))
	}
}

// GDDRTiming holds DRAM timing parameters in memory-controller cycles.
type GDDRTiming struct {
	TCL  int // CAS latency
	TRP  int // row precharge
	TRC  int // row cycle
	TRAS int // row active time
	TRCD int // RAS-to-CAS delay
	TRRD int // row-to-row activation delay
	TCCD int // column-to-column delay
	TWR  int // write recovery
}

// Config describes a complete simulated GPU. The zero value is not usable;
// start from Baseline() and override fields as needed.
type Config struct {
	// --- SMs ---
	NumSMs          int // total streaming multiprocessors
	NumClusters     int // SM clusters (one SM-router per cluster)
	CoreClockMHz    int
	WarpSize        int
	MaxWarpsPerSM   int // hardware warp contexts per SM
	MaxCTAsPerSM    int
	SchedulersPerSM int

	// --- L1 data cache (per SM) ---
	L1SizeBytes  int
	L1Ways       int
	L1LineBytes  int
	L1MSHRs      int
	L1HitLatency int

	// --- Memory-side LLC ---
	NumMemControllers int
	LLCSlicesPerMC    int // also the number of clusters in the co-designed NoC
	LLCSliceBytes     int
	LLCWays           int
	LLCLineBytes      int
	LLCLatency        int // tag+data access cycles
	LLCMSHRsPerSlice  int

	// --- LLC organization ---
	LLCMode LLCMode

	// --- NoC ---
	NoC            NoCTopology
	ChannelBytes   int // channel (flit) width in bytes
	Concentration  int // C-Xbar only: SMs / LLC slices per shared port
	RouterPipeline int // router pipeline depth in cycles
	VCsPerPort     int
	FlitsPerVC     int // input buffer depth per VC, in flits
	LinkLatency    int // cycles for the long SM-router <-> MC-router links

	// --- DRAM ---
	BanksPerMC       int
	DRAMBandwidthGBs float64 // aggregate pin bandwidth
	BusBytesPerCycle int     // data-bus bytes transferred per MC per core cycle
	Timing           GDDRTiming
	MCQueueDepth     int

	// --- Address mapping ---
	Mapping AddressMapping

	// --- Scheduling ---
	CTAScheduler CTASchedulerKind

	// --- Adaptive-LLC controller (Section 4 of the paper) ---
	ProfileWindowCycles int     // profiling phase length (50K cycles)
	EpochCycles         int     // epoch length between re-profiling (1M cycles)
	ATDSampledSets      int     // sets sampled per slice by the ATD (8)
	MissRateSimilarity  float64 // Rule #1 threshold (0.02 == within 2%)
	PowerGateCycles     int     // cycles to power-gate / wake the MC-routers
}

// Baseline returns the paper's Table 1 configuration.
func Baseline() Config {
	return Config{
		NumSMs:          80,
		NumClusters:     8,
		CoreClockMHz:    1400,
		WarpSize:        32,
		MaxWarpsPerSM:   64, // 2048 threads / 32 threads per warp
		MaxCTAsPerSM:    32,
		SchedulersPerSM: 2,

		L1SizeBytes:  48 * 1024,
		L1Ways:       6,
		L1LineBytes:  128,
		L1MSHRs:      32,
		L1HitLatency: 28,

		NumMemControllers: 8,
		LLCSlicesPerMC:    8,
		LLCSliceBytes:     96 * 1024,
		LLCWays:           16,
		LLCLineBytes:      128,
		LLCLatency:        120,
		LLCMSHRsPerSlice:  32,

		LLCMode: LLCShared,

		NoC:            NoCHierarchical,
		ChannelBytes:   32,
		Concentration:  2,
		RouterPipeline: 4,
		VCsPerPort:     1,
		FlitsPerVC:     8,
		LinkLatency:    2,

		BanksPerMC:       16,
		DRAMBandwidthGBs: 900,
		BusBytesPerCycle: 0, // derived in Normalize
		Timing: GDDRTiming{
			TCL: 12, TRP: 12, TRC: 40, TRAS: 28,
			TRCD: 12, TRRD: 6, TCCD: 2, TWR: 12,
		},
		MCQueueDepth: 64,

		Mapping:      MappingPAE,
		CTAScheduler: CTATwoLevelRR,

		ProfileWindowCycles: 50_000,
		EpochCycles:         1_000_000,
		ATDSampledSets:      8,
		MissRateSimilarity:  0.02,
		PowerGateCycles:     30,
	}
}

// SMsPerCluster returns the number of SMs in each cluster.
func (c Config) SMsPerCluster() int {
	if c.NumClusters == 0 {
		return 0
	}
	return c.NumSMs / c.NumClusters
}

// NumLLCSlices returns the total number of LLC slices in the GPU.
func (c Config) NumLLCSlices() int {
	return c.NumMemControllers * c.LLCSlicesPerMC
}

// TotalLLCBytes returns the aggregate LLC capacity.
func (c Config) TotalLLCBytes() int {
	return c.NumLLCSlices() * c.LLCSliceBytes
}

// LLCSetsPerSlice returns the number of sets in one LLC slice.
func (c Config) LLCSetsPerSlice() int {
	return c.LLCSliceBytes / (c.LLCWays * c.LLCLineBytes)
}

// L1Sets returns the number of sets in one L1 data cache.
func (c Config) L1Sets() int {
	return c.L1SizeBytes / (c.L1Ways * c.L1LineBytes)
}

// ReplyFlits returns the number of flits in a data-carrying reply packet
// (header + one cache line of payload at the configured channel width).
func (c Config) ReplyFlits() int {
	if c.ChannelBytes <= 0 {
		return 1
	}
	payload := (c.LLCLineBytes + c.ChannelBytes - 1) / c.ChannelBytes
	return 1 + payload
}

// RequestFlits returns the number of flits in a read-request packet. Write
// requests carry a payload and use ReplyFlits instead.
func (c Config) RequestFlits() int { return 1 }

// Normalize fills in derived fields that are zero and returns the updated
// configuration. It is idempotent.
func (c Config) Normalize() Config {
	if c.BusBytesPerCycle == 0 && c.NumMemControllers > 0 && c.CoreClockMHz > 0 {
		// Convert aggregate DRAM pin bandwidth into bytes per core cycle per
		// memory controller.
		bytesPerSec := c.DRAMBandwidthGBs * 1e9
		cyclesPerSec := float64(c.CoreClockMHz) * 1e6
		perMC := bytesPerSec / cyclesPerSec / float64(c.NumMemControllers)
		c.BusBytesPerCycle = int(perMC + 0.5)
		if c.BusBytesPerCycle < 1 {
			c.BusBytesPerCycle = 1
		}
	}
	return c
}

// Validate checks internal consistency of the configuration.
func (c Config) Validate() error {
	var errs []error
	check := func(cond bool, format string, args ...any) {
		if !cond {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}
	check(c.NumSMs > 0, "NumSMs must be positive, got %d", c.NumSMs)
	check(c.NumClusters > 0, "NumClusters must be positive, got %d", c.NumClusters)
	if c.NumClusters > 0 {
		check(c.NumSMs%c.NumClusters == 0,
			"NumSMs (%d) must be divisible by NumClusters (%d)", c.NumSMs, c.NumClusters)
	}
	check(c.WarpSize > 0, "WarpSize must be positive")
	check(c.MaxWarpsPerSM > 0, "MaxWarpsPerSM must be positive")
	check(c.NumMemControllers > 0, "NumMemControllers must be positive")
	check(c.LLCSlicesPerMC > 0, "LLCSlicesPerMC must be positive")
	check(c.LLCLineBytes > 0 && isPow2(c.LLCLineBytes), "LLCLineBytes must be a positive power of two, got %d", c.LLCLineBytes)
	check(c.L1LineBytes == c.LLCLineBytes, "L1LineBytes (%d) must equal LLCLineBytes (%d)", c.L1LineBytes, c.LLCLineBytes)
	if c.LLCWays > 0 && c.LLCLineBytes > 0 {
		// Note: 96 KB / (16 ways * 128 B) = 48 sets (Table 1), which is not a
		// power of two; LLC set indexing therefore uses modulo rather than
		// bit slicing.
		check(c.LLCSliceBytes%(c.LLCWays*c.LLCLineBytes) == 0,
			"LLCSliceBytes (%d) must be a multiple of ways*line (%d)", c.LLCSliceBytes, c.LLCWays*c.LLCLineBytes)
	}
	if c.L1Ways > 0 && c.L1LineBytes > 0 {
		check(c.L1SizeBytes%(c.L1Ways*c.L1LineBytes) == 0,
			"L1SizeBytes (%d) must be a multiple of ways*line (%d)", c.L1SizeBytes, c.L1Ways*c.L1LineBytes)
	}
	check(c.ChannelBytes > 0, "ChannelBytes must be positive")
	check(c.BanksPerMC > 0 && isPow2(c.BanksPerMC), "BanksPerMC must be a positive power of two, got %d", c.BanksPerMC)
	// A controller that can queue nothing refuses every request forever and
	// livelocks the slices behind it; its queue slots are indexed by int32.
	check(c.MCQueueDepth > 0 && int64(c.MCQueueDepth) <= math.MaxInt32,
		"MCQueueDepth must be in [1, %d], got %d", math.MaxInt32, c.MCQueueDepth)
	check(c.L1MSHRs > 0, "L1MSHRs must be positive, got %d", c.L1MSHRs)
	check(c.LLCMSHRsPerSlice > 0, "LLCMSHRsPerSlice must be positive, got %d", c.LLCMSHRsPerSlice)
	check(c.ProfileWindowCycles > 0, "ProfileWindowCycles must be positive")
	check(c.EpochCycles > c.ProfileWindowCycles,
		"EpochCycles (%d) must exceed ProfileWindowCycles (%d)", c.EpochCycles, c.ProfileWindowCycles)
	check(c.ATDSampledSets > 0, "ATDSampledSets must be positive")
	if c.ATDSampledSets > 0 && c.LLCWays > 0 && c.LLCLineBytes > 0 && c.LLCSliceBytes > 0 {
		check(c.ATDSampledSets <= c.LLCSetsPerSlice(),
			"ATDSampledSets (%d) cannot exceed LLC sets per slice (%d)", c.ATDSampledSets, c.LLCSetsPerSlice())
	}
	check(c.MissRateSimilarity >= 0 && c.MissRateSimilarity < 1,
		"MissRateSimilarity must be in [0,1), got %f", c.MissRateSimilarity)
	if c.NoC == NoCConcentrated {
		check(c.Concentration > 0, "Concentration must be positive for C-Xbar")
		if c.Concentration > 0 {
			check(c.NumSMs%c.Concentration == 0,
				"NumSMs (%d) must be divisible by Concentration (%d)", c.NumSMs, c.Concentration)
		}
	}
	// A packet longer than a router input buffer can never be injected:
	// narrowing the channels lengthens replies and stores past the buffer.
	if c.NoC != NoCIdeal {
		check(c.VCsPerPort*c.FlitsPerVC >= c.ReplyFlits(),
			"router input buffers (VCsPerPort %d x FlitsPerVC %d flits) must hold a %d-flit reply at %d B channels",
			c.VCsPerPort, c.FlitsPerVC, c.ReplyFlits(), c.ChannelBytes)
	}
	// The NoC/LLC co-design requirement of the paper: as many SM-routers
	// (clusters) as LLC slices per memory controller.
	if c.LLCMode != LLCShared {
		check(c.NumClusters == c.LLCSlicesPerMC,
			"private/adaptive LLC requires NumClusters (%d) == LLCSlicesPerMC (%d)", c.NumClusters, c.LLCSlicesPerMC)
	}
	if len(errs) == 0 {
		return nil
	}
	return errors.Join(errs...)
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }
