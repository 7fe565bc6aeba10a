package checkpoint

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/simstore"
	"repro/internal/sweep"
)

// Prefix fingerprints address checkpoints by what determines execution *up
// to* the snapshot point, so runs that diverge only afterwards share them.
//
// The warmup prefix of a run depends on the workload (specs or trace
// content), configuration, per-app modes, seed and warmup length — but not on
// the measurement window: Warmup never fires a kernel boundary (its internal
// kernel count is 1) and measurement starts from zero afterwards. WarmupKey
// therefore fingerprints the spec with MeasureCycles zeroed and Kernels
// pinned to 1, erasing exactly the measure-window knobs. (Kernels is pinned
// rather than zeroed because Canonical resolves a zero Kernels from the
// workloads — two specs differing only in Kernels must still share a warmup
// key.)
//
// A kernel-boundary prefix additionally depends on the boundary schedule,
// which MeasureCycles and Kernels define — so KernelKey derives from the full
// run fingerprint plus the boundary ordinal.
//
// Both keys inherit the simstore salts (SchemaVersion, SimVersion) through
// simstore.Fingerprint, so any simulator behaviour change that invalidates
// cached results invalidates checkpoints with it; the derivation strings
// below additionally keep checkpoint keys disjoint from result fingerprints
// (and .ckpt vs .json storage namespaces make a collision harmless anyway).

// WarmupKey returns the content address of the run's state at warmup end.
// Specs that provably execute identical warmups map to the same key.
func WarmupKey(spec sweep.RunSpec) ([32]byte, error) {
	c := spec.Canonical()
	c.MeasureCycles = 0
	c.Kernels = 1
	fp, err := simstore.Fingerprint(c)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256([]byte("repro-checkpoint/warmup|" + simstore.Hex(fp))), nil
}

// KernelKey returns the content address of the run's state at its m-th
// kernel boundary (m >= 1).
func KernelKey(spec sweep.RunSpec, m int) ([32]byte, error) {
	fp, err := simstore.Fingerprint(spec)
	if err != nil {
		return [32]byte{}, err
	}
	return kernelKey(fp, m), nil
}

// kernelKey derives a kernel-boundary key from the run fingerprint, for
// callers that need several boundaries of one spec and fingerprint it once.
func kernelKey(fp [32]byte, m int) [32]byte {
	return sha256.Sum256(fmt.Appendf(nil, "repro-checkpoint/kernel|%s|%d", simstore.Hex(fp), m))
}
