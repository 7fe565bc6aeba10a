package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/simstore"
	"repro/internal/sweep"
)

// Invariants checks the cross-cutting stat sanity bounds every run must
// satisfy, regardless of workload: counter conservation (hits + misses ==
// accesses at both cache levels), derived-rate consistency (IPC and miss
// rates recompute exactly from their counters), per-slice and per-app
// decompositions summing to their totals, and the cycle accounting of the
// adaptive controller, whose organization the GPU must follow. It returns
// one message per violated invariant.
//
// These are the properties the scenario runner applies to every result and
// the fuzzer applies to every generated workload; anything stronger (mode A
// beats mode B, monotonicity across a ladder) belongs in a scenario's own
// Check hook.
func Invariants(spec sweep.RunSpec, s gpu.RunStats) []string {
	var v []string
	fail := func(format string, args ...any) {
		v = append(v, fmt.Sprintf(format, args...))
	}

	if s.Cycles != spec.MeasureCycles {
		fail("Cycles = %d, want the requested MeasureCycles %d", s.Cycles, spec.MeasureCycles)
	}
	if s.Cycles > 0 {
		if want := float64(s.Instructions) / float64(s.Cycles); s.IPC != want {
			fail("IPC = %v, want Instructions/Cycles = %v", s.IPC, want)
		}
	}

	// SM-side conservation.
	if s.SM.Loads+s.SM.Stores != s.SM.MemInstructions {
		fail("SM.Loads (%d) + SM.Stores (%d) != SM.MemInstructions (%d)",
			s.SM.Loads, s.SM.Stores, s.SM.MemInstructions)
	}
	if s.SM.L1Hits+s.SM.L1Misses != s.SM.Loads {
		fail("SM.L1Hits (%d) + SM.L1Misses (%d) != SM.Loads (%d)",
			s.SM.L1Hits, s.SM.L1Misses, s.SM.Loads)
	}
	if s.SM.MemInstructions > s.SM.Instructions {
		fail("SM.MemInstructions (%d) > SM.Instructions (%d)", s.SM.MemInstructions, s.SM.Instructions)
	}
	if s.SM.Instructions != s.Instructions {
		fail("SM.Instructions (%d) != Instructions (%d)", s.SM.Instructions, s.Instructions)
	}
	if want := s.SM.L1MissRate(); s.L1MissRate != want {
		fail("L1MissRate = %v, want recomputed %v", s.L1MissRate, want)
	}

	// Scheduler-slot conservation: every SM ticks in every cycle the GPU is
	// not stalled for a reconfiguration, and every tick gives each scheduler
	// exactly one outcome — the counts a skipped tick must be credited with.
	if s.ReconfigStall > s.Cycles {
		fail("ReconfigStall (%d) > Cycles (%d)", s.ReconfigStall, s.Cycles)
	} else if want := uint64(spec.Config.NumSMs) * (s.Cycles - s.ReconfigStall); s.SM.Cycles != want {
		fail("SM.Cycles = %d, want NumSMs (%d) × (Cycles − ReconfigStall) = %d",
			s.SM.Cycles, spec.Config.NumSMs, want)
	}
	if slots := s.SM.Cycles * uint64(max(1, spec.Config.SchedulersPerSM)); s.SM.Instructions+s.SM.StallNoReadyWarp+s.SM.StallStructural != slots {
		fail("SM.Instructions (%d) + SM.StallNoReadyWarp (%d) + SM.StallStructural (%d) != SM.Cycles × SchedulersPerSM = %d",
			s.SM.Instructions, s.SM.StallNoReadyWarp, s.SM.StallStructural, slots)
	}

	// LLC-side conservation. Merged misses are counted as hits (GPGPU-Sim's
	// "hit reserved"), so hits + misses covers every access exactly.
	if s.LLC.Hits+s.LLC.Misses != s.LLC.Accesses {
		fail("LLC.Hits (%d) + LLC.Misses (%d) != LLC.Accesses (%d)",
			s.LLC.Hits, s.LLC.Misses, s.LLC.Accesses)
	}
	if s.LLC.Reads+s.LLC.Writes != s.LLC.Accesses {
		fail("LLC.Reads (%d) + LLC.Writes (%d) != LLC.Accesses (%d)",
			s.LLC.Reads, s.LLC.Writes, s.LLC.Accesses)
	}
	if s.LLC.MergedMisses > s.LLC.Hits {
		fail("LLC.MergedMisses (%d) > LLC.Hits (%d)", s.LLC.MergedMisses, s.LLC.Hits)
	}
	if want := s.LLC.MissRate(); s.LLCMissRate != want {
		fail("LLCMissRate = %v, want recomputed %v", s.LLCMissRate, want)
	}
	var perSlice uint64
	for _, a := range s.LLCPerSliceAccesses {
		perSlice += a
	}
	if perSlice != s.LLC.Accesses {
		fail("sum of LLCPerSliceAccesses (%d) != LLC.Accesses (%d)", perSlice, s.LLC.Accesses)
	}

	// Per-application decomposition.
	var perApp uint64
	for _, a := range s.AppInstructions {
		perApp += a
	}
	if perApp != s.Instructions {
		fail("sum of AppInstructions (%d) != Instructions (%d)", perApp, s.Instructions)
	}

	// Adaptive-controller cycle accounting: every measured cycle is spent in
	// exactly one LLC organization.
	var modeSum uint64
	for _, c := range s.ModeCycles {
		modeSum += c
	}
	if modeSum != s.Cycles {
		fail("sum of ModeCycles (%d) != Cycles (%d)", modeSum, s.Cycles)
	}
	if s.GatedCycles > s.Cycles {
		fail("GatedCycles (%d) > Cycles (%d)", s.GatedCycles, s.Cycles)
	}
	if s.Cycles > 0 {
		if want := float64(s.GatedCycles) / float64(s.Cycles); s.GatedFraction != want {
			fail("GatedFraction = %v, want recomputed %v", s.GatedFraction, want)
		}
	}

	// The GPU follows the controller's organization: its LLC is private only
	// while the controller wants private, or while a transition the
	// controller is charged for (ReconfigCycles) takes it there and back. A
	// P→S drain still in flight at the end is charged to neither side; its
	// cycles are stalled ones, and only a run that ends private has one. The
	// controller's counters include the warm-up, so the bound only loosens.
	if c := s.Controller; c != nil {
		var inFlight uint64
		if s.FinalMode == config.LLCPrivate {
			inFlight = s.ReconfigStall
		}
		if p := s.ModeCycles[config.LLCPrivate]; p > c.PrivateCycles+c.ReconfigCycles+inFlight {
			fail("ModeCycles[private] (%d) > Controller.PrivateCycles (%d) + Controller.ReconfigCycles (%d) + in-flight drain allowance (%d): the GPU stayed private without the controller",
				p, c.PrivateCycles, c.ReconfigCycles, inFlight)
		}
	}
	return v
}

// StatsJSON returns the canonical JSON encoding of a result's statistics —
// the byte string under which "byte-identical across two invocations" is
// judged (encoding/json sorts map keys, so the encoding is deterministic).
func StatsJSON(s gpu.RunStats) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// RunStats is a plain data struct; failure to encode it is a
		// programming error, not a run outcome.
		panic(fmt.Sprintf("scenario: encode RunStats: %v", err))
	}
	return b
}

// fingerprintViolations checks simstore fingerprint stability for one spec:
// two computations agree, and the fingerprint ignores run naming (Key), as
// the content-addressed store depends on.
func fingerprintViolations(spec sweep.RunSpec) []string {
	fp1, _ := simstore.Fingerprint(spec) // never fails
	fp2, _ := simstore.Fingerprint(spec)
	var v []string
	if fp1 != fp2 {
		v = append(v, fmt.Sprintf("run %q: fingerprint not stable across two computations", spec.Key))
	}
	renamed := spec
	renamed.Key = spec.Key + "-renamed"
	if fp3, _ := simstore.Fingerprint(renamed); fp1 != fp3 {
		v = append(v, fmt.Sprintf("run %q: fingerprint depends on the run Key", spec.Key))
	}
	return v
}

// statsEqual reports whether two results carry byte-identical statistics.
func statsEqual(a, b gpu.RunStats) bool {
	return bytes.Equal(StatsJSON(a), StatsJSON(b))
}
