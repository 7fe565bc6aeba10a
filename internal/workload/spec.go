package workload

import (
	"fmt"
	"slices"
)

// Class is the paper's workload classification.
type Class int

const (
	// SharedFriendly workloads prefer a shared LLC (Figure 2a).
	SharedFriendly Class = iota
	// PrivateFriendly workloads prefer a private LLC (Figure 2b).
	PrivateFriendly
	// Neutral workloads perform equally under both organizations (Figure 2c).
	Neutral
)

func (c Class) String() string {
	switch c {
	case SharedFriendly:
		return "shared-friendly"
	case PrivateFriendly:
		return "private-friendly"
	case Neutral:
		return "neutral"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Pattern selects how accesses to the shared data region are generated.
type Pattern int

const (
	// PatternUniformShared draws shared accesses uniformly from the whole
	// shared footprint: large reuse distance (capacity-sensitive), no
	// instantaneous hot spot. Typical of tiled linear algebra and graph
	// traversals over large read-only structures.
	PatternUniformShared Pattern = iota
	// PatternLockstepSweep makes every CTA sweep the shared footprint
	// sequentially from (nearly) the same position: the instantaneous hot
	// frontier is only a few lines wide, so a shared LLC serializes the
	// replicated demand on a few slices. Typical of DNN inference where all
	// CTAs read the same layer weights at the same time.
	PatternLockstepSweep
	// PatternPrivateStream generates almost exclusively per-CTA streaming
	// accesses with negligible sharing. Typical of map-style kernels
	// (vector add, Black-Scholes, histograms on private bins).
	PatternPrivateStream
)

func (p Pattern) String() string {
	switch p {
	case PatternUniformShared:
		return "uniform-shared"
	case PatternLockstepSweep:
		return "lockstep-sweep"
	case PatternPrivateStream:
		return "private-stream"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Spec describes one synthetic benchmark.
type Spec struct {
	Name  string
	Abbr  string
	Class Class
	// SharedDataMB is the read-only shared footprint from Table 2.
	SharedDataMB float64
	// Kernels is the number of kernels from Table 2; the run harness
	// launches them at even intervals of the measured window.
	Kernels int

	Pattern Pattern
	// MemRatio is the fraction of issued instructions that are memory
	// operations.
	MemRatio float64
	// SharedFraction is the fraction of memory operations that touch the
	// shared read-only footprint (the rest go to per-CTA private data).
	SharedFraction float64
	// WriteFraction is the fraction of private-data memory operations that
	// are stores (the shared footprint is read-only, as in the paper).
	WriteFraction float64
	// FrontierJitterLines controls lockstep tightness: each CTA's sweep
	// position deviates from the global frontier by at most this many lines.
	// Smaller values concentrate demand on fewer LLC slices.
	FrontierJitterLines int
	// TrailingReuseFraction is the fraction of shared accesses that revisit a
	// random line within the trailing window behind the warp's sweep
	// position (re-reading recently used weights/activations). These
	// accesses exceed the L1 reach and give the LLC a realistic population
	// of shared lines beyond the narrow frontier.
	TrailingReuseFraction float64
	// TrailingWindowLines is the size of that trailing window in cache lines.
	TrailingWindowLines int
	// PrivateKBPerCTA is the per-CTA private/streaming footprint.
	PrivateKBPerCTA int
	// ALULatency is the issue-to-ready latency of non-memory instructions,
	// controlling compute intensity between memory operations.
	ALULatency int
}

// Validate reports whether the spec is internally consistent.
func (s Spec) Validate() error {
	switch {
	case s.Name == "" || s.Abbr == "":
		return fmt.Errorf("workload: missing name/abbr")
	case s.SharedDataMB < 0:
		return fmt.Errorf("workload %s: negative shared footprint", s.Abbr)
	case !fraction(s.MemRatio):
		return fmt.Errorf("workload %s: MemRatio %f out of [0,1]", s.Abbr, s.MemRatio)
	case !fraction(s.SharedFraction):
		return fmt.Errorf("workload %s: SharedFraction %f out of [0,1]", s.Abbr, s.SharedFraction)
	case !fraction(s.WriteFraction):
		return fmt.Errorf("workload %s: WriteFraction %f out of [0,1]", s.Abbr, s.WriteFraction)
	case !fraction(s.TrailingReuseFraction):
		return fmt.Errorf("workload %s: TrailingReuseFraction %f out of [0,1]", s.Abbr, s.TrailingReuseFraction)
	case s.FrontierJitterLines < 0:
		return fmt.Errorf("workload %s: negative FrontierJitterLines", s.Abbr)
	case s.TrailingWindowLines < 0:
		return fmt.Errorf("workload %s: negative TrailingWindowLines", s.Abbr)
	case s.Kernels < 1:
		return fmt.Errorf("workload %s: Kernels must be >= 1", s.Abbr)
	case s.ALULatency < 1:
		return fmt.Errorf("workload %s: ALULatency must be >= 1", s.Abbr)
	case s.PrivateKBPerCTA < 0:
		return fmt.Errorf("workload %s: negative private footprint", s.Abbr)
	}
	return nil
}

// fraction reports whether v is a probability: in [0,1], and not NaN.
func fraction(v float64) bool { return v >= 0 && v <= 1 }

// SharedLines returns the shared footprint in cache lines.
func (s Spec) SharedLines(lineBytes int) uint64 {
	lines := uint64(s.SharedDataMB * 1024 * 1024 / float64(lineBytes))
	if lines == 0 {
		lines = 1
	}
	return lines
}

// Catalog returns the 17 benchmarks of Table 2 with behavioural parameters
// calibrated so that each class reproduces its paper behaviour on the
// simulated baseline GPU. The slice is the caller's own.
func Catalog() []Spec { return slices.Clone(catalog) }

// catalog is Table 2, built once: a Spec holds only scalars and strings,
// so handing out copies of its entries shares nothing mutable.
var catalog = buildCatalog()

func buildCatalog() []Spec {
	shared := func(name, abbr string, mb float64, kernels int, memRatio float64) Spec {
		return Spec{
			Name: name, Abbr: abbr, Class: SharedFriendly,
			SharedDataMB: mb, Kernels: kernels,
			Pattern:  PatternUniformShared,
			MemRatio: memRatio, SharedFraction: 0.85, WriteFraction: 0.15,
			FrontierJitterLines: 0,
			PrivateKBPerCTA:     8,
			ALULatency:          4,
		}
	}
	private := func(name, abbr string, mb float64, kernels, jitter int) Spec {
		return Spec{
			Name: name, Abbr: abbr, Class: PrivateFriendly,
			SharedDataMB: mb, Kernels: kernels,
			Pattern:  PatternLockstepSweep,
			MemRatio: 0.55, SharedFraction: 0.985, WriteFraction: 0.05,
			FrontierJitterLines:   jitter,
			TrailingReuseFraction: 0,
			TrailingWindowLines:   512,
			PrivateKBPerCTA:       1,
			ALULatency:            4,
		}
	}
	neutral := func(name, abbr string, mb float64, kernels int, memRatio float64) Spec {
		return Spec{
			Name: name, Abbr: abbr, Class: Neutral,
			SharedDataMB: mb, Kernels: kernels,
			Pattern:  PatternPrivateStream,
			MemRatio: memRatio, SharedFraction: 0.05, WriteFraction: 0.30,
			FrontierJitterLines: 0,
			PrivateKBPerCTA:     256,
			ALULatency:          4,
		}
	}

	return []Spec{
		// Shared cache friendly (Figure 2a / Table 2).
		shared("LU Decomposition", "LUD", 33.4, 3, 0.22),
		shared("Survey Propagation", "SP", 17.0, 2, 0.20),
		shared("3D Convolution", "3DC", 51.1, 48, 0.18),
		shared("B+Tree Search", "BT", 13.7, 1, 0.22),
		shared("GEMM", "GEMM", 1.8, 1, 0.22),
		shared("Backprop", "BP", 18.8, 2, 0.20),

		// Private cache friendly (Figure 2b / Table 2).
		private("AlexNet", "AN", 1.0, 6, 4),
		private("ResNet", "RN", 4.2, 6, 5),
		private("SqueezeNet", "SN", 0.7, 1, 3),
		private("NeuralNetwork", "NN", 5.7, 2, 4),
		private("Matrix Multiply", "MM", 1.9, 2, 5),

		// Shared/private cache neutral (Figure 2c / Table 2).
		neutral("BlackScholes", "BS", 0.001, 3, 0.35),
		neutral("DWT2D", "DWT2D", 0.001, 1, 0.35),
		neutral("Merge Sort", "MS", 0.001, 1, 0.38),
		neutral("BinomialOptions", "BINO", 0.017, 1, 0.30),
		neutral("Histogram", "HG", 0.003, 1, 0.40),
		neutral("Vector Add", "VA", 0.001, 1, 0.45),
	}
}

// ByAbbr looks up a catalog entry by its abbreviation.
func ByAbbr(abbr string) (Spec, bool) {
	for _, s := range catalog {
		if s.Abbr == abbr {
			return s, true
		}
	}
	return Spec{}, false
}

// ByClass returns the catalog entries of one class, in catalog order.
func ByClass(c Class) []Spec {
	var out []Spec
	for _, s := range catalog {
		if s.Class == c {
			out = append(out, s)
		}
	}
	return out
}
