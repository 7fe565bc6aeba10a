package core

import (
	"repro/internal/config"
	"repro/internal/wire"
)

// AppendState appends the controller's wire form, fields in declaration
// order: the mandated mode, the ATD, the LSP profiling counters, the
// window/epoch clocks and the statistics. Floats go as their IEEE-754 bits,
// so they round-trip exactly.
func (c *Controller) AppendState(b []byte) []byte {
	b = wire.AppendInt(b, int(c.mode))
	b = c.atd.AppendState(b)
	b = wire.AppendUvarint(b, uint64(len(c.privPerMC)))
	b = wire.AppendUvarints(b, c.privPerMC)
	b = wire.AppendUvarint(b, uint64(len(c.sharedPerSlice)))
	b = wire.AppendUvarints(b, c.sharedPerSlice)
	b = wire.AppendUvarint(b, c.subWindowEnd)
	b = wire.AppendFloat64(b, c.sharedLSPSum)
	b = wire.AppendFloat64(b, c.privateLSPSum)
	b = wire.AppendUvarint(b, c.lspWindows)
	b = wire.AppendBool(b, c.profiling)
	b = wire.AppendUvarint(b, c.windowStart)
	b = wire.AppendUvarint(b, c.epochStart)
	b = c.lastPred.AppendTo(b)
	for _, p := range c.stats.counters() {
		b = wire.AppendUvarint(b, *p)
	}
	return wire.AppendUvarint(b, c.cycle)
}

// RestoreState overwrites the controller's state with the next one in r,
// written by a controller built under the same configuration. Every field is
// overwritten, the statistics included: NewController's initial
// startProfile already counted a profile window that the snapshot
// supersedes. On a failure, recorded in r, the controller holds nothing
// usable.
func (c *Controller) RestoreState(r *wire.Reader) {
	c.mode = config.LLCMode(r.Int())
	c.atd.RestoreState(r)
	if n := r.Uvarint(); n != uint64(len(c.privPerMC)) {
		r.Fail("core: snapshot has %d MC counters, controller has %d", n, len(c.privPerMC))
		return
	}
	for i := range c.privPerMC {
		c.privPerMC[i] = r.Uvarint()
	}
	if n := r.Uvarint(); n != uint64(len(c.sharedPerSlice)) {
		r.Fail("core: snapshot has %d slice counters, controller has %d", n, len(c.sharedPerSlice))
		return
	}
	for i := range c.sharedPerSlice {
		c.sharedPerSlice[i] = r.Uvarint()
	}
	c.subWindowEnd = r.Uvarint()
	c.sharedLSPSum = r.Float64()
	c.privateLSPSum = r.Float64()
	c.lspWindows = r.Uvarint()
	c.profiling = r.Bool()
	c.windowStart = r.Uvarint()
	c.epochStart = r.Uvarint()
	c.lastPred.ReadFrom(r)
	for _, p := range c.stats.counters() {
		*p = r.Uvarint()
	}
	c.cycle = r.Uvarint()
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
