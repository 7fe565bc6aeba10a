package noc

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/wire"
)

// refTick is xbarNet.Tick as it was before the due set and the calendar:
// every output port of every router is visited every cycle, and each port's
// whole in-flight list is checked for due packets. The calendar Tick must
// reproduce it delivery for delivery.
func (n *xbarNet) refTick() []*Packet {
	n.cycle++
	n.delivered = n.delivered[:0]
	for _, r := range n.routers {
		if r.gated {
			n.stats.GatedRouterCycles++
		} else {
			n.stats.RouterCycles++
		}
		for _, port := range r.outPorts {
			for k := port.inflight.Len(); k > 0; k-- {
				if f := port.inflight.PopFront(); n.cycle >= f.arriveAt {
					n.arrive(port, f.p)
				} else {
					port.inflight.PushBack(f)
				}
			}
			n.transmit(port)
		}
	}
	return n.delivered
}

// requireFiled fails unless every port holding work is due, or filed in the
// calendar slot of a cycle no later than its next event: the one way the
// calendar Tick could go wrong is to leave a port unvisited past the cycle
// in which it would have acted. Its next event is worked out here from the
// port's queues, not by nextEvent.
func requireFiled(t *testing.T, n *xbarNet, cyc int) {
	t.Helper()
	in := func(set []uint64, i int) bool { return set[i>>6]>>(i&63)&1 == 1 }
	for _, port := range n.ports {
		next, work := ^uint64(0), false
		if port.inflight.Len() > 0 {
			next, work = port.inflight.At(0).arriveAt, true
		}
		if port.candidates.Len() > 0 {
			next, work = min(next, port.busyUntil), true
		}
		if !work || in(n.due, port.index) {
			continue
		}
		filed := false
		for at := n.cycle + 1; at <= min(next, n.cycle+horizon) && !filed; at++ {
			filed = in(n.cal[int(at&63)*len(n.due):], port.index)
		}
		if !filed {
			t.Fatalf("cycle %d: router %s port %d holds work due at %d (net cycle %d) but is neither due nor filed by then",
				cyc, port.router.name, port.index, next, n.cycle)
		}
	}
}

type delivery struct {
	id                      uint64
	src, dst, hops          int
	injectedAt, deliveredAt uint64
}

func deliveries(ps []*Packet) []delivery {
	out := make([]delivery, len(ps))
	for i, p := range ps {
		out[i] = delivery{p.ID, p.Src, p.Dst, p.Hops, p.InjectedAt, p.DeliveredAt}
	}
	return out
}

// TestActivePortTickMatchesReference drives the calendar crossbar and the
// visit-every-port reference with the same randomized traffic on every
// crossbar topology, both directions, H-Xbar also bypassed: same deliveries
// in the same order every cycle, same refusals, same Stats, same snapshot,
// across a mid-run SaveState/RestoreState onto an instance that has carried
// traffic before, and after every tick every port holding work due or filed
// in time (requireFiled). The new side asks Accepts before injecting, the
// reference lets Inject refuse, so the refusal count is held equal too.
func TestActivePortTickMatchesReference(t *testing.T) {
	cycles := 50000
	if testing.Short() {
		cycles = 8000
	}
	type variant struct {
		topo   config.NoCTopology
		dir    Direction
		bypass bool
	}
	var variants []variant
	for _, topo := range []config.NoCTopology{config.NoCFull, config.NoCConcentrated, config.NoCHierarchical} {
		for _, dir := range []Direction{Request, Reply} {
			variants = append(variants, variant{topo, dir, false})
		}
	}
	variants = append(variants, variant{config.NoCHierarchical, Request, true}, variant{config.NoCHierarchical, Reply, true})

	for _, v := range variants {
		t.Run(fmt.Sprintf("%v-%v-bypass=%v", v.topo, v.dir, v.bypass), func(t *testing.T) {
			p := testParams(v.topo)
			build := func() *xbarNet {
				n := MustNew(p, v.dir).(*xbarNet)
				if err := n.SetBypass(v.bypass); err != nil {
					t.Fatal(err)
				}
				return n
			}
			got, ref, used := build(), build(), build()
			rng := rand.New(rand.NewSource(int64(v.topo)*100 + int64(v.dir)*10 + 1))
			// pick draws an endpoint pair; under bypass it respects the
			// private routing (a cluster only talks to its own slice of
			// each controller).
			perCl := p.smsPerCluster()
			pick := func() (src, dst int) {
				sm, slice := rng.Intn(p.NumSMs), rng.Intn(p.numSlices())
				if v.bypass {
					slice = slice/p.SlicesPerMC*p.SlicesPerMC + sm/perCl
				}
				if v.dir == Reply {
					return slice, sm
				}
				return sm, slice
			}
			var id uint64
			delivered := 0
			for cyc := 0; cyc < cycles; cyc++ {
				// Load swings between idle, ~8 packets a cycle and a burst
				// on one hot destination that fills buffers end to end.
				phase := cyc / 1000 % 4
				for k := []int{0, 8, 8, 24}[phase]; k > 0; k-- {
					src, dst := pick()
					if phase == 3 && !v.bypass {
						_, dst = pick()
						dst %= 2
					}
					flits := 1
					if rng.Intn(3) == 0 {
						flits = 5
					}
					id++
					a := &Packet{ID: id, Src: src, Dst: dst, Flits: flits}
					b, c := *a, *a
					used.Inject(&c)
					refOK := ref.Inject(&b)
					if ok := got.Accepts(src, flits); ok != refOK {
						t.Fatalf("cycle %d: Accepts = %v, reference Inject %v", cyc, ok, refOK)
					} else if ok && !got.Inject(a) {
						t.Fatalf("cycle %d: Inject refused what Accepts admitted", cyc)
					}
				}
				used.Tick()
				d, rd := deliveries(got.Tick()), deliveries(ref.refTick())
				if len(d) != len(rd) || (len(d) > 0 && !reflect.DeepEqual(d, rd)) {
					t.Fatalf("cycle %d: deliveries\n got %+v\nwant %+v", cyc, d, rd)
				}
				delivered += len(d)
				requireFiled(t, got, cyc)
				if got.Stats() != ref.Stats() {
					t.Fatalf("cycle %d: stats\n got %+v\nwant %+v", cyc, got.Stats(), ref.Stats())
				}
				if cyc%1999 == 0 || cyc == cycles/2 {
					if !bytes.Equal(got.AppendState(nil), ref.AppendState(nil)) {
						t.Fatalf("cycle %d: snapshots differ", cyc)
					}
				}
				if cyc == cycles/2 {
					drain(t, used, 100000)
					st := got.AppendState(nil)
					restore := func(n *xbarNet) {
						r := wire.NewReader(st)
						if n.RestoreState(r, &pool.FreeList[Packet]{}, &pool.FreeList[mem.Request]{}); r.Done() != nil {
							t.Fatal(r.Err())
						}
					}
					restore(used)
					got, used = used, got
					fresh := build()
					restore(fresh)
					ref = fresh
				}
			}
			if delivered == 0 || got.Stats().InjectStallCycles == 0 {
				t.Fatalf("the drive delivered %d packets with %d refusals", delivered, got.Stats().InjectStallCycles)
			}
		})
	}
}
