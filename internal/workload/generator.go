package workload

import (
	"fmt"

	"repro/internal/config"
)

// Op is one dynamic instruction handed to a warp.
type Op struct {
	// IsMem marks a memory operation; non-memory operations occupy the warp
	// for ALULatency cycles.
	IsMem bool
	// Write marks a store (only private data is written; the shared
	// footprint is read-only as in the paper).
	Write bool
	// Addr is the accessed byte address (memory operations only).
	Addr uint64
	// ALULatency is the latency of a non-memory operation.
	ALULatency int
}

// Program supplies dynamic instructions to warps. Implementations must be
// deterministic for a fixed seed and are not safe for concurrent use.
type Program interface {
	// NextOp returns the next operation for warp `warpSlot` of SM `sm`.
	NextOp(sm, warpSlot int) Op
	// NextKernel signals a kernel boundary: per-warp progress is
	// re-synchronized (as successive CUDA kernels do implicitly) and the
	// kernel counter advances.
	NextKernel()
}

// Base addresses of the synthetic address-space regions. They only need to
// be far enough apart that regions never overlap.
const (
	sharedBase  = uint64(1) << 28
	privateBase = uint64(1) << 33
)

type warpState struct {
	ctaID    int
	sweepPos uint64 // next line offset in the shared region (lockstep sweep)
	privPos  uint64 // next line offset in the CTA's private region
	startPos uint64 // kernel-start sweep offset (jitter)
}

// Generator produces the instruction stream of one benchmark for every warp
// of the GPU.
type Generator struct {
	spec Spec
	cfg  config.Config
	seed int64
	rng  lfg

	lineBytes  uint64
	privLines  uint64      // lines per CTA private region
	privStride uint64      // bytes reserved per CTA private region
	warps      []warpState // slot sm*MaxWarpsPerSM + warp
	kernel     int
	// The bounds the stream draws below or reduces by: frontier jitter,
	// trailing window, shared footprint, private tile, frontier advance.
	jitterMod, trailMod, sharedMod, tileMod, advanceMod modulus
	// The spec's MemRatio, SharedFraction, WriteFraction and
	// TrailingReuseFraction as thresholds.
	memT, sharedT, writeT, trailT threshold
	// Global lockstep frontier (PatternLockstepSweep): all warps read lines
	// near this position, which advances once every advanceMod.n shared
	// accesses (about one access per warp in the GPU per line).
	globalFrontier uint64
	sharedCount    uint64
	appID          int
	addrOffset     uint64 // shifts this program's address space (multi-program)
	totalOps       uint64
	totalMemOps    uint64
	totalShared    uint64
	totalPrivate   uint64
}

// NewGenerator builds a generator for spec on the GPU described by cfg.
// The stream is deterministic for a given seed.
func NewGenerator(spec Spec, cfg config.Config, seed int64) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.NumSMs <= 0 || cfg.MaxWarpsPerSM <= 0 {
		return nil, fmt.Errorf("workload: invalid GPU config (SMs=%d warps=%d)", cfg.NumSMs, cfg.MaxWarpsPerSM)
	}
	g := &Generator{
		spec:      spec,
		cfg:       cfg,
		seed:      seed,
		lineBytes: uint64(cfg.LLCLineBytes),
	}
	g.rng.seed(seed)
	g.privLines = uint64(spec.PrivateKBPerCTA) * 1024 / g.lineBytes
	if g.privLines == 0 {
		g.privLines = 1
	}
	// Pad the per-CTA region stride by a few lines so that different CTAs'
	// regions do not all alias onto the same handful of cache sets (a
	// power-of-two stride would make every region start at set 0).
	g.privStride = (g.privLines + 5) * g.lineBytes
	g.jitterMod = newModulus(uint64(spec.FrontierJitterLines) + 1)
	g.trailMod = newModulus(uint64(spec.TrailingWindowLines))
	g.sharedMod = newModulus(spec.SharedLines(cfg.LLCLineBytes))
	g.tileMod = newModulus(min(g.privLines, 4))
	g.advanceMod = newModulus(uint64(cfg.NumSMs * cfg.MaxWarpsPerSM))
	g.memT, g.sharedT = thresholdOf(spec.MemRatio), thresholdOf(spec.SharedFraction)
	g.writeT, g.trailT = thresholdOf(spec.WriteFraction), thresholdOf(spec.TrailingReuseFraction)
	g.warps = make([]warpState, cfg.NumSMs*cfg.MaxWarpsPerSM)
	g.assignCTAs()
	g.resetSweeps()
	return g, nil
}

// MustNewGenerator is NewGenerator that panics on error.
func MustNewGenerator(spec Spec, cfg config.Config, seed int64) *Generator {
	g, err := NewGenerator(spec, cfg, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// SetApp assigns an application identity and a disjoint address-space offset
// for multi-program execution.
func (g *Generator) SetApp(appID int) {
	g.appID = appID
	g.addrOffset = uint64(appID) << 40
}

// assignCTAs gives every warp a CTA identity according to the configured
// CTA scheduling policy. Warps are grouped into CTAs of
// MaxWarpsPerSM/MaxCTAsPerSM warps.
func (g *Generator) assignCTAs() {
	warpsPerCTA := g.cfg.MaxWarpsPerSM / g.cfg.MaxCTAsPerSM
	if warpsPerCTA < 1 {
		warpsPerCTA = 1
	}
	ctasPerSM := g.cfg.MaxWarpsPerSM / warpsPerCTA
	smsPerCluster := g.cfg.SMsPerCluster()

	nextCTA := 0
	switch g.cfg.CTAScheduler {
	case config.CTABlock:
		// BCS: adjacent CTAs on the same SM.
		for s := 0; s < g.cfg.NumSMs; s++ {
			for c := 0; c < ctasPerSM; c++ {
				g.setCTA(s, c, warpsPerCTA, nextCTA)
				nextCTA++
			}
		}
	case config.CTADistributed:
		// DCS: the CTA space is divided evenly across clusters, so adjacent
		// CTAs land in the same cluster.
		for cl := 0; cl < g.cfg.NumClusters; cl++ {
			for c := 0; c < ctasPerSM; c++ {
				for s := 0; s < smsPerCluster; s++ {
					sm := cl*smsPerCluster + s
					g.setCTA(sm, c, warpsPerCTA, nextCTA)
					nextCTA++
				}
			}
		}
	default:
		// Two-level round-robin (paper default): CTAs are dealt across
		// clusters first, then across the SMs of each cluster.
		for c := 0; c < ctasPerSM; c++ {
			for s := 0; s < smsPerCluster; s++ {
				for cl := 0; cl < g.cfg.NumClusters; cl++ {
					sm := cl*smsPerCluster + s
					g.setCTA(sm, c, warpsPerCTA, nextCTA)
					nextCTA++
				}
			}
		}
	}
}

func (g *Generator) setCTA(sm, ctaSlot, warpsPerCTA, ctaID int) {
	for w := ctaSlot * warpsPerCTA; w < (ctaSlot+1)*warpsPerCTA && w < g.cfg.MaxWarpsPerSM; w++ {
		g.warp(sm, w).ctaID = ctaID
	}
}

// resetSweeps re-synchronizes every warp's shared-sweep position, as happens
// implicitly at kernel boundaries.
func (g *Generator) resetSweeps() {
	jitter := uint64(g.spec.FrontierJitterLines)
	for s := 0; s < g.cfg.NumSMs; s++ {
		cluster := 0
		if g.cfg.SMsPerCluster() > 0 {
			cluster = s / g.cfg.SMsPerCluster()
		}
		for w := 0; w < g.cfg.MaxWarpsPerSM; w++ {
			ws := g.warp(s, w)
			start := uint64(0)
			if jitter > 0 {
				start = g.rng.below(g.jitterMod)
			}
			// Distributed CTA scheduling keeps adjacent CTAs in one cluster,
			// which de-phases the clusters slightly and reduces inter-cluster
			// locality (paper §6.4, CTA Scheduling Policy).
			if g.cfg.CTAScheduler == config.CTADistributed {
				start += uint64(cluster) * (jitter + 1)
			}
			ws.startPos = start
			ws.sweepPos = start
			ws.privPos = 0
		}
	}
}

// NextKernel implements Program.
func (g *Generator) NextKernel() {
	g.kernel++
	// Successive kernels work on fresh shared operands (e.g. the next
	// layer's weights): jump the lockstep frontier past anything the L1s
	// may still hold rather than rewinding it.
	g.globalFrontier += uint64(g.cfg.L1SizeBytes / g.cfg.LLCLineBytes)
	g.resetSweeps()
}

// NextOp implements Program.
func (g *Generator) NextOp(sm, warpSlot int) Op {
	ws := g.warp(sm, warpSlot)
	g.totalOps++
	if g.rng.unit() >= g.memT {
		return Op{ALULatency: g.spec.ALULatency}
	}
	g.totalMemOps++

	if g.rng.unit() < g.sharedT {
		g.totalShared++
		return Op{IsMem: true, Addr: g.sharedAddr(ws, sm)}
	}
	g.totalPrivate++
	write := g.rng.unit() < g.writeT
	return Op{IsMem: true, Write: write, Addr: g.privateAddr(ws)}
}

func (g *Generator) sharedAddr(ws *warpState, sm int) uint64 {
	var line uint64
	switch g.spec.Pattern {
	case PatternLockstepSweep:
		// All warps of all SMs read lines near a single global frontier,
		// modelling kernels in which every CTA consumes the same read-only
		// operand (layer weights, broadcast vectors) at the same time. The
		// frontier advances once the GPU as a whole has issued roughly one
		// access per warp to it, so each warp reads each line about once.
		g.sharedCount++
		if g.advanceMod.mod(g.sharedCount) == 0 {
			g.globalFrontier++
		}
		off := uint64(0)
		if g.spec.FrontierJitterLines > 0 {
			off = g.rng.below(g.jitterMod)
		}
		if g.spec.TrailingReuseFraction > 0 && g.spec.TrailingWindowLines > 0 &&
			g.rng.unit() < g.trailT {
			// Revisit a recently swept line (re-reading recently used
			// weights); these re-reads exceed the L1 reach and populate the
			// LLC with shared lines beyond the narrow frontier.
			back := g.rng.below(g.trailMod) + 1
			if back > g.globalFrontier {
				back = g.globalFrontier
			}
			line = g.sharedMod.mod(g.globalFrontier - back + ws.startPos)
			break
		}
		line = g.sharedMod.mod(g.globalFrontier + off + ws.startPos)
	default:
		// Uniform reuse over the whole footprint (also used for the tiny
		// shared regions of the neutral workloads).
		line = g.rng.below(g.sharedMod)
	}
	return g.addrOffset + sharedBase + line*g.lineBytes
}

func (g *Generator) privateAddr(ws *warpState) uint64 {
	var line uint64
	if g.spec.Pattern == PatternPrivateStream {
		// Streaming: every access touches the next line of the CTA's region,
		// with no short-term reuse (DRAM-bound map-style kernels).
		line = ws.privPos % g.privLines
		ws.privPos++
	} else {
		// Compute-tile working set: random reuse within the first few lines
		// of the CTA's private region. The tiny footprint keeps this data
		// L1-resident, so it adds realism (stores, occasional misses) without
		// drowning the LLC in unshared streaming traffic.
		line = g.rng.below(g.tileMod)
	}
	base := g.addrOffset + privateBase + uint64(ws.ctaID)*g.privStride
	return base + line*g.lineBytes
}

// OpCounts reports how many operations of each kind have been generated.
func (g *Generator) OpCounts() (total, mem, shared, private uint64) {
	return g.totalOps, g.totalMemOps, g.totalShared, g.totalPrivate
}

// CTAOf returns the CTA identity assigned to a warp (exported for tests and
// for the CTA-scheduling sensitivity analysis).
func (g *Generator) CTAOf(sm, warpSlot int) int {
	return g.warp(sm, warpSlot).ctaID
}

func (g *Generator) warp(sm, warpSlot int) *warpState {
	return &g.warps[sm*g.cfg.MaxWarpsPerSM+warpSlot]
}
