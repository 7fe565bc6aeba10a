package main

import (
	"runtime"

	"repro/internal/gpu"
)

// This file is the benchmark's only contact with the sharded cycle loop
// (gpu.SetShards, the run-time face of config.Config.Shards). If ROADMAP's
// "make it win or delete it" item ends in deletion, the follow-up here is
// this file plus the `sharded` phase in gpuround.go.

// shardCount is the shard count of the `sharded` phase: every core, but at
// least two (so the barrier path runs even on one core) and at most four.
func shardCount() int {
	n := runtime.NumCPU()
	if n < 2 {
		n = 2
	}
	if n > 4 {
		n = 4
	}
	return n
}

// useShards switches a warmed-up, idle GPU to the sharded loop and reports
// the effective shard count.
func useShards(g *gpu.GPU, n int) int {
	g.SetShards(n)
	return g.Shards()
}

// barrierSpins sums the spin-barrier wait iterations of the first n shard
// slots (process-wide counters; callers take deltas).
func barrierSpins(n int) uint64 {
	var total uint64
	for k := 0; k < n; k++ {
		total += gpu.BarrierSpins(k)
	}
	return total
}
