package gpu

import "repro/internal/wire"

// never is a wake time no cycle reaches (sm.SM.NextWake's "none").
const never = ^uint64(0)

// activity records which components the next cycle must visit (DESIGN.md
// "Frozen SMs and active sets"). Bit i of a set stands for SM or slice i,
// and step walks every set in ascending index order — the order in which
// visiting everything reached them — so every Accepts refusal counter, the
// controller's observations and the shared pools see the same sequence of
// calls. It is derived, never serialised: New and RestoreState mark
// everything active, and a component visited with nothing to do clears
// its own bit.
type activity struct {
	// smDue holds the SMs to tick: all but the frozen ones, each of which
	// waits for a reply or for its next wake time. smCal files the SM under
	// that time when it is at most 63 cycles away (slot t&63, as many words
	// as smDue, holds the SMs that wake at t), which a wake time from the SM's own
	// calendar always is; a later one (the SM's farMin) waits in smFar,
	// smFarMin being the earliest. A frozen SM's skipped ticks are credited
	// when it next ticks or is settled; settled says no SM is frozen, and
	// then nothing is filed.
	smDue    []uint64
	smCal    []uint64
	smFar    []uint64
	smFarMin uint64
	settled  bool

	ticks uint64 // SM ticks run, skipped ones not counted (BenchmarkStep)

	smOut      []uint64 // SMs with a queued request
	sliceIn    []uint64 // slices with a queued request
	sliceDRAM  []uint64 // slices with a queued DRAM request
	sliceReply []uint64 // slices with a queued reply, matured or not
}

// activateAll marks every component active and no SM frozen.
func (g *GPU) activateAll() {
	a := &g.act
	a.smCal = wire.Resize(a.smCal, 64*wire.BitWords(len(g.sms)))
	a.smFar = wire.Resize(a.smFar, len(g.sms))
	a.smOut = allBits(a.smOut, len(g.sms))
	a.sliceIn = allBits(a.sliceIn, len(g.slices))
	a.sliceDRAM = allBits(a.sliceDRAM, len(g.slices))
	a.sliceReply = allBits(a.sliceReply, len(g.slices))
	g.allDue()
}

// allBits returns a set of n bits, all set, in b's backing array if it fits.
func allBits(b []uint64, n int) []uint64 {
	b = wire.Resize(b, wire.BitWords(n))
	for i := range b {
		b[i] = ^uint64(0)
	}
	if n&63 != 0 {
		b[len(b)-1] = 1<<(n&63) - 1
	}
	return b
}

func setBit(b []uint64, i int) { b[i>>6] |= 1 << (i & 63) }

// freeze takes SM i, frozen by its tick this cycle, out of the due set until
// its next wake time.
func (g *GPU) freeze(i int) {
	a := &g.act
	a.smDue[i>>6] &^= 1 << (i & 63)
	a.settled = false
	switch at := g.sms[i].NextWake(); {
	case at == never:
	case at-g.cycle <= 63:
		setBit(a.smCal[int(at&63)*len(a.smDue):], i)
	default:
		a.smFar[i] = at
		a.smFarMin = min(a.smFarMin, at)
	}
}

// wakeSMs makes due the frozen SMs whose wake time is this cycle. An SM a
// reply woke earlier may still be filed; ticking it again is harmless.
func (g *GPU) wakeSMs() {
	a := &g.act
	slot := a.smCal[int(g.cycle&63)*len(a.smDue):][:len(a.smDue)]
	for k, word := range slot {
		a.smDue[k] |= word
		slot[k] = 0
	}
	if g.cycle < a.smFarMin {
		return
	}
	a.smFarMin = never
	for i, at := range a.smFar {
		if at <= g.cycle {
			setBit(a.smDue, i)
			a.smFar[i] = never
		} else {
			a.smFarMin = min(a.smFarMin, at)
		}
	}
}

// settleSMs credits every frozen SM with the ticks it skipped up to and
// including cycle, the last one in which SMs were ticked, moves its clock
// there and makes it due: afterwards every SM's counters and clock are what
// ticking it every cycle would have left. It runs before anything reads SM
// statistics or state (resetMeasurement, collect, SaveState) and when a
// reconfiguration stall begins, so a skip never spans cycles in which no SM
// was ticked, and nothing filed is ever left behind a gap in wakeSMs' walk.
func (g *GPU) settleSMs(cycle uint64) {
	if g.act.settled {
		return
	}
	for _, s := range g.sms {
		s.SkipTo(cycle)
	}
	g.allDue()
}

// allDue marks every SM due and files none.
func (g *GPU) allDue() {
	a := &g.act
	a.smDue = allBits(a.smDue, len(g.sms))
	clear(a.smCal)
	for i := range a.smFar {
		a.smFar[i] = never
	}
	a.smFarMin = never
	a.settled = true
}
