// Package workload provides synthetic GPU workload generators that
// reproduce the memory-system behaviour of the 17 CUDA benchmarks listed in
// Table 2 of the paper.
//
// The real benchmarks (Rodinia, CUDA SDK, Lonestar, Tango, PolyBench) are
// CUDA binaries executed on GPGPU-Sim; they cannot run inside this pure-Go
// simulator. Instead, each benchmark is characterized by the properties the
// paper shows to matter for the shared-vs-private LLC decision:
//
//   - the size of the read-only shared data footprint (Table 2),
//   - the temporal correlation of accesses to that footprint across SMs
//     ("lockstep" sweeps of e.g. neural-network weights create a narrow hot
//     frontier that concentrates load on few LLC slices),
//   - the fraction of traffic going to per-CTA private/streaming data, and
//   - the overall memory intensity and store share.
//
// A Generator turns a Spec into per-warp instruction streams consumed by
// the SM model; MultiProgram co-executes several generators on one GPU for
// the paper's multi-program evaluation (§6.3). The three behavioural
// classes of the paper emerge from the parameters rather than being
// hard-coded: shared-cache-friendly workloads have large, uniformly reused
// shared footprints; private-cache-friendly workloads have lockstep sweeps
// with narrow frontiers; neutral workloads stream per-CTA data with little
// sharing.
//
// Determinism: every generator derives all randomness from the seed passed
// at construction, so two generators built from equal (Spec, Config, seed)
// triples emit identical instruction streams. The internal/sweep engine
// relies on this to make parallel experiment batches byte-identical to
// serial ones.
package workload
