package sm

import (
	"repro/internal/mem"
	"repro/internal/wire"
)

// AppendState appends the SM's wire form: the scalars, the scheduler
// positions, the L1 tag store, its MSHR table (whose merge lists are the
// slots of the warps asleep on each line) and the out queue, then the warp
// columns — a bit per warp for asleep, the wake times of the others relative
// to the SM's cycle (a few cycles either way, where the absolute time grows
// with the run) and the retried operations of the warps that have one, in
// slot order. Pool contents are deliberately absent — the free list hands out
// zeroed objects, so an empty pool behaves identically to a recycled one —
// and so is what a warp does not read: the operation of a warp with nothing
// pending.
func (s *SM) AppendState(b []byte) []byte {
	b = wire.AppendUvarint(b, s.cycle)
	b = wire.AppendUvarint(b, s.reqCounter)
	b = wire.AppendInt(b, s.appID)
	for _, p := range s.stats.counters() {
		b = wire.AppendUvarint(b, *p)
	}
	b = wire.AppendUvarint(b, uint64(len(s.current)))
	b = wire.AppendInts(b, s.current)
	b = s.l1.AppendState(b)
	b = s.mshrs.AppendState(b, wire.AppendUvarint)
	b = mem.AppendQueue(b, &s.outQ)

	b = wire.AppendUvarint(b, uint64(len(s.wake)))
	at := len(b)
	b = append(b, make([]byte, (len(s.wake)+7)/8)...)
	for w, t := range s.wake {
		if t == asleep {
			b[at+w>>3] |= 1 << (w & 7)
		}
	}
	for _, t := range s.wake {
		if t != asleep {
			b = wire.AppendVarint(b, int64(t-s.cycle))
		}
	}
	pending := 0
	for i := range s.warps {
		if s.warps[i].hasPending {
			pending++
		}
	}
	b = wire.AppendUvarint(b, uint64(pending))
	for i := range s.warps {
		if w := &s.warps[i]; w.hasPending {
			b = wire.AppendInt(b, i)
			b = w.pending.AppendTo(b)
		}
	}
	return b
}

// RestoreState overwrites the SM's state with the next one in r, written by
// an SM built under the same configuration. Queued requests are taken from
// the SM's request pool; the ownership invariant (each request lives in
// exactly one container) makes them equivalent to the ones written. It holds
// the merge lists to what CompleteLoad relies on: they name warp slots, every
// listed warp is asleep, and every asleep warp is in exactly one list. On a
// failure, recorded in r, the SM holds nothing usable.
func (s *SM) RestoreState(r *wire.Reader) {
	s.cycle = r.Uvarint()
	s.reqCounter = r.Uvarint()
	s.appID = r.Int()
	for _, p := range s.stats.counters() {
		*p = r.Uvarint()
	}
	if n := r.Uvarint(); n != uint64(len(s.current)) {
		r.Fail("sm %d: snapshot has %d schedulers, SM has %d", s.id, n, len(s.current))
		return
	}
	for i := range s.current {
		s.current[i] = r.Int()
	}
	s.l1.RestoreState(r)
	// The ready set is derived (rebuilt below): until then it holds the
	// warps the merge lists name.
	listed := s.ready
	clear(listed)
	s.mshrs.RestoreState(r, 1, func(r *wire.Reader, i int) uint64 {
		w := r.Uvarint()
		switch {
		case w >= uint64(len(s.warps)):
			r.Fail("sm %d: snapshot's MSHR entry %d lists warp %d of %d", s.id, i, w, len(s.warps))
			return 0
		case listed[w>>6]>>(w&63)&1 != 0:
			r.Fail("sm %d: snapshot lists warp %d twice in its MSHR entries", s.id, w)
		}
		listed[w>>6] |= 1 << (w & 63)
		return w
	})
	mem.ReadQueue(r, &s.outQ, s.pool)

	if n := r.Uvarint(); n != uint64(len(s.wake)) {
		r.Fail("sm %d: snapshot has %d warps, SM has %d", s.id, n, len(s.wake))
		return
	}
	sleeping := r.Take((len(s.wake) + 7) / 8)
	if sleeping == nil {
		return
	}
	for w := range s.wake {
		switch asleepBit, isListed := sleeping[w>>3]>>(w&7)&1 != 0, listed[w>>6]>>(w&63)&1 != 0; {
		case asleepBit && !isListed:
			r.Fail("sm %d: snapshot's warp %d is asleep in no MSHR entry", s.id, w)
			return
		case !asleepBit && isListed:
			r.Fail("sm %d: snapshot's MSHR entries list warp %d, which is not asleep", s.id, w)
			return
		case asleepBit:
			s.wake[w] = asleep
		default:
			s.wake[w] = s.cycle + uint64(r.Varint())
		}
	}
	if len(s.wake)%8 != 0 && sleeping[len(sleeping)-1]>>(len(s.wake)%8) != 0 {
		r.Fail("sm %d: snapshot marks warps asleep beyond its %d", s.id, len(s.wake))
		return
	}
	clear(s.warps)
	for range r.Count(5) {
		w := r.Int()
		if w < 0 || w >= len(s.warps) {
			r.Fail("sm %d: snapshot has a pending operation for warp %d of %d", s.id, w, len(s.warps))
			return
		}
		s.warps[w].pending.ReadFrom(r)
		s.warps[w].hasPending = true
	}
	// Derived issue-stage state is rebuilt, not restored: stall memos start
	// empty, so the first retry after a restore takes the full path, the
	// ready set and the calendar are refiled from the wake times and the
	// cycle, the SM is thawed, and every L1 slot counts as in flight until a
	// lookup's MSHR probe says otherwise.
	for i := range s.inflight {
		s.inflight[i] = ^uint64(0)
	}
	s.rebuild()
	s.frozen = false
}

// counters lists the statistics in wire order.
func (s *Stats) counters() [12]*uint64 {
	return [...]*uint64{&s.Cycles, &s.Instructions, &s.MemInstructions, &s.Loads, &s.Stores, &s.L1Hits, &s.L1Misses,
		&s.StallNoReadyWarp, &s.StallStructural, &s.RepliesReceived, &s.TotalLoadLatency, &s.LoadsCompleted}
}
