package gpu

// What the frozen benchmark (bench/simbench, which a feature PR may not edit)
// still compiles against from the deleted sharded cycle loop. Its `sharded`
// phase runs the one loop and records shards=1. Nothing else may call these.

// SetShards is a no-op; delete with bench/simbench/shards.go.
func (g *GPU) SetShards(int) {}

// Shards is always 1; delete with bench/simbench/shards.go.
func (g *GPU) Shards() int { return 1 }

// BarrierSpins is always 0; delete with bench/simbench/shards.go.
func BarrierSpins(int) uint64 { return 0 }
