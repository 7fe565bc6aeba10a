package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/wire"
)

// State is a complete snapshot of the adaptive controller: its mandated
// mode, the ATD contents, the LSP profiling counters, the window/epoch
// clocks and the accumulated statistics.
type State struct {
	Mode           config.LLCMode
	ATD            cache.ATDState
	PrivPerMC      []uint64
	SharedPerSlice []uint64
	SubWindowEnd   uint64
	SharedLSPSum   float64
	PrivateLSPSum  float64
	LSPWindows     uint64
	Profiling      bool
	WindowStart    uint64
	EpochStart     uint64
	LastPred       Prediction
	Stats          Stats
	Cycle          uint64
}

// SaveState captures the controller's mutable state.
func (c *Controller) SaveState() State {
	var st State
	c.SaveStateInto(&st)
	return st
}

// SaveStateInto is SaveState reusing the backing arrays st already has.
func (c *Controller) SaveStateInto(st *State) {
	st.Mode = c.mode
	c.atd.SaveStateInto(&st.ATD)
	st.PrivPerMC = append(st.PrivPerMC[:0], c.privPerMC...)
	st.SharedPerSlice = append(st.SharedPerSlice[:0], c.sharedPerSlice...)
	st.SubWindowEnd = c.subWindowEnd
	st.SharedLSPSum = c.sharedLSPSum
	st.PrivateLSPSum = c.privateLSPSum
	st.LSPWindows = c.lspWindows
	st.Profiling = c.profiling
	st.WindowStart = c.windowStart
	st.EpochStart = c.epochStart
	st.LastPred = c.lastPred
	st.Stats = c.stats
	st.Cycle = c.cycle
}

// AppendTo appends the state's wire form, fields in declaration order;
// floats go as their IEEE-754 bits, so they round-trip exactly.
func (st *State) AppendTo(b []byte) []byte {
	b = wire.AppendInt(b, int(st.Mode))
	b = st.ATD.AppendTo(b)
	b = wire.AppendUvarint(b, uint64(len(st.PrivPerMC)))
	b = wire.AppendUvarints(b, st.PrivPerMC)
	b = wire.AppendUvarint(b, uint64(len(st.SharedPerSlice)))
	b = wire.AppendUvarints(b, st.SharedPerSlice)
	b = wire.AppendUvarint(b, st.SubWindowEnd)
	b = wire.AppendFloat64(b, st.SharedLSPSum)
	b = wire.AppendFloat64(b, st.PrivateLSPSum)
	b = wire.AppendUvarint(b, st.LSPWindows)
	b = wire.AppendBool(b, st.Profiling)
	b = wire.AppendUvarint(b, st.WindowStart)
	b = wire.AppendUvarint(b, st.EpochStart)
	b = st.LastPred.AppendTo(b)
	for _, p := range st.Stats.counters() {
		b = wire.AppendUvarint(b, *p)
	}
	return wire.AppendUvarint(b, st.Cycle)
}

// ReadFrom overwrites the state with the next one in r, reusing the backing
// arrays it already has.
func (st *State) ReadFrom(r *wire.Reader) {
	st.Mode = config.LLCMode(r.Int())
	st.ATD.ReadFrom(r)
	st.PrivPerMC = r.Uvarints(st.PrivPerMC, r.Count(1))
	st.SharedPerSlice = r.Uvarints(st.SharedPerSlice, r.Count(1))
	st.SubWindowEnd = r.Uvarint()
	st.SharedLSPSum = r.Float64()
	st.PrivateLSPSum = r.Float64()
	st.LSPWindows = r.Uvarint()
	st.Profiling = r.Bool()
	st.WindowStart = r.Uvarint()
	st.EpochStart = r.Uvarint()
	st.LastPred.ReadFrom(r)
	for _, p := range st.Stats.counters() {
		*p = r.Uvarint()
	}
	st.Cycle = r.Uvarint()
}

// counters lists the statistics in wire order.
func (s *Stats) counters() [9]*uint64 {
	return [...]*uint64{&s.ProfileWindows, &s.SwitchesToPrivate, &s.SwitchesToShared,
		&s.Rule1Decisions, &s.Rule2Decisions, &s.StayShared,
		&s.ReconfigCycles, &s.PrivateCycles, &s.SharedCycles}
}

// AppendTo appends the prediction's wire form to b.
func (p *Prediction) AppendTo(b []byte) []byte {
	for _, v := range p.estimates() {
		b = wire.AppendFloat64(b, *v)
	}
	return wire.AppendUvarint(b, p.WindowAccesses)
}

// ReadFrom overwrites the prediction with the next one in r.
func (p *Prediction) ReadFrom(r *wire.Reader) {
	for _, v := range p.estimates() {
		*v = r.Float64()
	}
	p.WindowAccesses = r.Uvarint()
}

// estimates lists the float estimates in wire order.
func (p *Prediction) estimates() [6]*float64 {
	return [...]*float64{&p.SharedMissRate, &p.PrivateMissRate, &p.SharedLSP, &p.PrivateLSP,
		&p.SharedBandwidth, &p.PrivateBandwidth}
}

// AppendTo appends the decision's wire form to b.
func (d *Decision) AppendTo(b []byte) []byte {
	b = wire.AppendInt(b, int(d.Target))
	b = wire.AppendInt(b, int(d.Reason))
	return d.Prediction.AppendTo(b)
}

// ReadFrom overwrites the decision with the next one in r.
func (d *Decision) ReadFrom(r *wire.Reader) {
	d.Target = config.LLCMode(r.Int())
	d.Reason = Reason(r.Int())
	d.Prediction.ReadFrom(r)
}

// RestoreState overwrites the controller's mutable state with a snapshot
// taken from a controller built under the same configuration. The statistics
// are written last: NewController's initial startProfile already counted a
// profile window that the snapshot supersedes.
func (c *Controller) RestoreState(st State) error {
	if len(st.PrivPerMC) != len(c.privPerMC) {
		return fmt.Errorf("core: snapshot has %d MC counters, controller has %d", len(st.PrivPerMC), len(c.privPerMC))
	}
	if len(st.SharedPerSlice) != len(c.sharedPerSlice) {
		return fmt.Errorf("core: snapshot has %d slice counters, controller has %d", len(st.SharedPerSlice), len(c.sharedPerSlice))
	}
	if err := c.atd.RestoreState(st.ATD); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	c.mode = st.Mode
	copy(c.privPerMC, st.PrivPerMC)
	copy(c.sharedPerSlice, st.SharedPerSlice)
	c.subWindowEnd = st.SubWindowEnd
	c.sharedLSPSum = st.SharedLSPSum
	c.privateLSPSum = st.PrivateLSPSum
	c.lspWindows = st.LSPWindows
	c.profiling = st.Profiling
	c.windowStart = st.WindowStart
	c.epochStart = st.EpochStart
	c.lastPred = st.LastPred
	c.stats = st.Stats
	c.cycle = st.Cycle
	return nil
}
