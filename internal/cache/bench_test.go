package cache

import "testing"

var sinkResult Result

// BenchmarkCacheAccess is the tag-store rung of the measurement ladder: host
// nanoseconds per access on the L1's geometry (64 sets, mask index) and an
// LLC slice's (48 sets, modulo index), for a resident working set, a stream
// of fresh lines, and the look-then-touch pair the SM's load path and the
// slice's read path make (Find, a stall check, AccessAt) over a mix of both.
func BenchmarkCacheAccess(b *testing.B) {
	for _, g := range []struct {
		name string
		cfg  Config
	}{
		{"l1", Config{SizeBytes: 48 * 1024, Ways: 6, LineBytes: 128, Policy: WriteThrough}},
		{"llc-slice", Config{SizeBytes: 96 * 1024, Ways: 16, LineBytes: 128, Policy: WriteBack}},
	} {
		lines := uint64(g.cfg.Sets() * g.cfg.Ways)
		// Address streams are tabled: a modulo per access would cost as much
		// as the lookup it feeds.
		var hits, mix [4096]uint64
		for i := range hits {
			hits[i] = uint64(i) * 7 % (lines / 4) << 7 // few enough lines that hashing overfills no set
			mix[i] = uint64(i) * 7 % (lines / 2) << 7
		}
		b.Run(g.name+"/hit", func(b *testing.B) {
			c := New(g.cfg)
			for _, a := range hits {
				c.Access(a, Read, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			misses := uint64(0)
			for i := 0; i < b.N; i++ {
				sinkResult = c.Access(hits[i%len(hits)], Read, 0)
				if !sinkResult.Hit {
					misses++
				}
			}
			if misses > lines/4 {
				b.Fatalf("the resident set missed %d times", misses)
			}
		})
		b.Run(g.name+"/miss", func(b *testing.B) {
			c := New(g.cfg)
			b.ReportAllocs()
			b.ResetTimer()
			hit := false
			for i := 0; i < b.N; i++ {
				sinkResult = c.Access(uint64(i)<<7, Read, 0)
				hit = hit || sinkResult.Hit
			}
			if hit {
				b.Fatal("the stream hit")
			}
		})
		b.Run(g.name+"/find-then-access", func(b *testing.B) {
			c := New(g.cfg)
			stalls, hits, evictions := 0, 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Three accesses in four over half the capacity, the fourth a
				// fresh line.
				addr := mix[i%len(mix)]
				if i%4 == 3 {
					addr = (lines + uint64(i)) << 7
				}
				at := c.Find(addr)
				if !at.Hit() && i%64 == 0 {
					stalls++ // a structural stall: looked, did not touch
					continue
				}
				sinkResult, _ = c.AccessAt(at, Read, 0)
				if sinkResult.Hit {
					hits++
				}
				if sinkResult.Evicted {
					evictions++
				}
			}
			if b.N > 1000 && (hits == 0 || evictions == 0 || stalls == 0) {
				b.Fatalf("the mix did not reach every path: %d stalls, %d hits, %d evictions", stalls, hits, evictions)
			}
		})
	}
}
