package noc

import (
	"testing"

	"repro/internal/config"
	"repro/internal/pool"
)

// BenchmarkXbarTick is the noc rung of the measurement ladder: host
// nanoseconds per request-network cycle, empty and carrying eight
// single-flit packets a cycle (the memory-bound load: ~8 flits move per cycle
// over a few hundred ports), on the hierarchical and the full crossbar.
func BenchmarkXbarTick(b *testing.B) {
	for _, topo := range []config.NoCTopology{config.NoCHierarchical, config.NoCFull} {
		p := testParams(topo)
		for _, load := range []struct {
			name  string
			flits int
		}{{"idle", 0}, {"8-flits-per-cycle", 8}} {
			b.Run(load.name+"/"+topo.String(), func(b *testing.B) {
				n := MustNew(p, Request)
				var pkts pool.FreeList[Packet]
				cyc := 0
				step := func() {
					cyc++
					for k := 0; k < load.flits; k++ {
						// Sources and destinations rotate so that every
						// port sees traffic and none saturates.
						src, dst := (cyc*8+k)%p.NumSMs, (cyc*11+k*7)%p.numSlices()
						if n.Accepts(src, 1) {
							pkt := pkts.Get()
							*pkt = Packet{ID: uint64(cyc), Src: src, Dst: dst, Flits: 1}
							n.Inject(pkt)
						}
					}
					for _, pkt := range n.Tick() {
						pkts.Put(pkt)
					}
				}
				for i := 0; i < 5_000; i++ {
					step()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/net-cycle")
			})
		}
	}
}
