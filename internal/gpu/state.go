package gpu

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/config"
	"repro/internal/wire"
	"repro/internal/workload"
)

// State is a complete snapshot of a GPU mid-simulation — every component's
// architectural and statistical state plus the top-level mode machinery and
// collectors — in its wire form: Payload is the sections of sectionNames,
// one after another, each written by its components straight from their
// live fields, and Lengths says how many bytes each takes. Restoring it onto
// a freshly constructed GPU built from the same configuration and workload
// inputs reproduces the remainder of the run cycle-for-cycle, so an
// interrupted and a resumed run yield byte-identical statistics.
//
// AppendTo writes the section table (a little-endian uint32 length per
// section) and the payload, the bytes a checkpoint file holds; ParseState
// reads them back. Restoring reads a State without changing it.
type State struct {
	Lengths [numSections]int
	Payload []byte
}

// sectionNames lists the parts of a State in wire order.
var sectionNames = [numSections]string{"machine", "SMs", "LLC", "DRAM", "NoC", "controller", "program"}

// The sections' indices.
const (
	secMachine = iota
	secSMs
	secLLC
	secDRAM
	secNoC
	secCtrl
	secProgram
	numSections
)

// tableBytes is the size of the section table in front of the payload.
const tableBytes = 4 * numSections

// section returns the bytes of section i.
func (st *State) section(i int) []byte {
	at := 0
	for _, n := range st.Lengths[:i] {
		at += n
	}
	return st.Payload[at : at+st.Lengths[i]]
}

// AppendTo appends the state's wire form, the section table and the
// payload, to b.
func (st *State) AppendTo(b []byte) []byte {
	for _, n := range st.Lengths {
		b = binary.LittleEndian.AppendUint32(b, uint32(n))
	}
	return append(b, st.Payload...)
}

// ParseState splits b, a section table and the payload behind it, into a
// State that keeps b (it does not copy it). It checks only that the table
// adds up to the payload: whether the sections fit a GPU is RestoreState's
// question.
func ParseState(b []byte) (State, error) {
	var st State
	if len(b) < tableBytes {
		return st, fmt.Errorf("gpu: state of %d bytes holds no section table", len(b))
	}
	total := uint64(0)
	for i := range st.Lengths {
		n := binary.LittleEndian.Uint32(b[4*i:])
		st.Lengths[i] = int(n)
		total += uint64(n)
	}
	if st.Payload = b[tableBytes:]; total != uint64(len(st.Payload)) {
		return State{}, fmt.Errorf("gpu: section table adds up to %d bytes, payload is %d", total, len(st.Payload))
	}
	return st, nil
}

// Cycle returns the current simulated cycle.
func (g *GPU) Cycle() uint64 { return g.cycle }

// SaveState captures the GPU's complete mutable state. It fails if the
// workload program does not support checkpointing.
func (g *GPU) SaveState() (State, error) {
	b, err := g.AppendState(nil)
	if err != nil {
		return State{}, err
	}
	return ParseState(b)
}

// AppendState appends the GPU's state in its wire form — State.AppendTo's
// bytes — to b, writing every section straight from the components. It
// fails if the workload program does not support checkpointing.
func (g *GPU) AppendState(b []byte) ([]byte, error) {
	cp, ok := g.prog.(workload.Checkpointable)
	if !ok {
		return nil, fmt.Errorf("gpu: program %T is not checkpointable", g.prog)
	}
	prog, err := cp.SaveProgState()
	if err != nil {
		return nil, fmt.Errorf("gpu: %w", err)
	}
	// What ticking every SM and slice every cycle would have left.
	g.settleSMs(g.cycle)
	for _, s := range g.slices {
		s.SetCycle(g.cycle)
	}
	table := len(b)
	b = append(b, make([]byte, tableBytes)...)
	for i := range numSections {
		at := len(b)
		switch i {
		case secMachine:
			b = g.appendMachine(b)
		case secSMs:
			b = wire.AppendUvarint(b, uint64(len(g.sms)))
			for _, s := range g.sms {
				b = s.AppendState(b)
			}
		case secLLC:
			b = wire.AppendUvarint(b, uint64(len(g.slices)))
			for _, s := range g.slices {
				b = s.AppendState(b)
			}
		case secDRAM:
			b = wire.AppendUvarint(b, uint64(len(g.mcs)))
			for _, mc := range g.mcs {
				b = mc.AppendState(b)
			}
		case secNoC:
			b = g.repNet.AppendState(g.reqNet.AppendState(b))
		case secCtrl:
			b = wire.AppendBool(b, g.ctrl != nil)
			if g.ctrl != nil {
				b = g.ctrl.AppendState(b)
			}
		case secProgram:
			b = prog.AppendTo(b)
		}
		binary.LittleEndian.PutUint32(b[table+4*i:], uint32(len(b)-at))
	}
	return b, nil
}

// appendMachine writes the top-level scalars: clocks, the mode and
// reconfiguration state machine, and the collectors.
func (g *GPU) appendMachine(b []byte) []byte {
	b = wire.AppendUvarint(b, g.cycle)
	b = wire.AppendUvarint(b, g.runStart)
	b = wire.AppendInt(b, int(g.mode))
	b = wire.AppendUvarint(b, uint64(len(g.appModes)))
	for _, m := range g.appModes {
		b = wire.AppendInt(b, int(m))
	}
	b = wire.AppendBool(b, g.reconfigActive)
	b = wire.AppendUvarint(b, g.reconfigStarted)
	b = wire.AppendUvarint(b, g.stallUntil)
	b = wire.AppendUvarint(b, g.gatedCycles)
	b = wire.AppendUvarint(b, g.stallCycles)
	b = wire.AppendUvarint(b, g.reconfigCount)
	b = wire.AppendUvarints(b, g.sharerBuckets[:])
	b = wire.AppendUvarint(b, g.sharerTotal)
	b = wire.AppendUvarint(b, g.sharerWindowEnd)
	b = wire.AppendUvarint(b, uint64(len(g.kernelBoundaries)))
	b = wire.AppendUvarints(b, g.kernelBoundaries)
	return wire.AppendUvarints(b, g.modeCycles[:])
}

func (g *GPU) readMachine(r *wire.Reader) {
	g.cycle = r.Uvarint()
	g.runStart = r.Uvarint()
	g.mode = config.LLCMode(r.Int())
	g.appModes = nil
	for range r.Count(1) {
		g.appModes = append(g.appModes, config.LLCMode(r.Int()))
	}
	g.reconfigActive = r.Bool()
	g.reconfigStarted = r.Uvarint()
	g.stallUntil = r.Uvarint()
	g.gatedCycles = r.Uvarint()
	g.stallCycles = r.Uvarint()
	g.reconfigCount = r.Uvarint()
	for i := range g.sharerBuckets {
		g.sharerBuckets[i] = r.Uvarint()
	}
	g.sharerTotal = r.Uvarint()
	g.sharerWindowEnd = r.Uvarint()
	g.kernelBoundaries = nil
	for range r.Count(1) {
		g.kernelBoundaries = append(g.kernelBoundaries, r.Uvarint())
	}
	for i := range g.modeCycles {
		g.modeCycles[i] = r.Uvarint()
	}
}

// count reads a component count, which the configuration fixes.
func count(r *wire.Reader, what string, want int) bool {
	if n := r.Uvarint(); n != uint64(want) {
		r.Fail("gpu: snapshot has %d %s, GPU has %d", n, what, want)
		return false
	}
	return true
}

// RestoreState overwrites the GPU's mutable state with a snapshot taken from
// a GPU built under the same configuration and workload inputs, and leaves
// the snapshot as it was. The program is restored first, then the sections
// in wire order, each read straight into its components. Mode-derived
// physical state (slice write policies, NoC bypass) comes back through the
// component sections, so no SetAppModes/applyMode side effects are replayed.
// On an error the GPU holds nothing usable and must be thrown away, as
// Restore does.
func (g *GPU) RestoreState(st State) error {
	cp, ok := g.prog.(workload.Checkpointable)
	if !ok {
		return fmt.Errorf("gpu: program %T is not checkpointable", g.prog)
	}
	var prog workload.ProgramState
	r := wire.NewReader(st.section(secProgram))
	prog.ReadFrom(r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("gpu: program section: %w", err)
	}
	if err := cp.RestoreProgState(prog); err != nil {
		return fmt.Errorf("gpu: %w", err)
	}
	for i := range secProgram {
		r := wire.NewReader(st.section(i))
		switch i {
		case secMachine:
			g.readMachine(r)
			// The cycle loop indexes by the mode, and a live GPU is organized
			// shared or private whatever its configuration.
			foreign := func(m config.LLCMode) bool { return m != config.LLCShared && m != config.LLCPrivate }
			if foreign(g.mode) || slices.ContainsFunc(g.appModes, foreign) {
				r.Fail("gpu: snapshot organizes the LLC other than shared or private")
			}
		case secSMs:
			if count(r, "SMs", len(g.sms)) {
				for _, s := range g.sms {
					s.RestoreState(r)
				}
			}
		case secLLC:
			if count(r, "LLC slices", len(g.slices)) {
				for _, s := range g.slices {
					s.RestoreState(r)
				}
			}
		case secDRAM:
			if count(r, "memory controllers", len(g.mcs)) {
				for _, mc := range g.mcs {
					mc.RestoreState(r)
				}
			}
		case secNoC:
			g.reqNet.RestoreState(r, &g.pktPool, g.reqPool)
			g.repNet.RestoreState(r, &g.pktPool, g.reqPool)
		case secCtrl:
			if has := r.Bool(); has != (g.ctrl != nil) {
				r.Fail("gpu: snapshot controller presence (%v) does not match configuration (%v)", has, g.ctrl != nil)
			} else if has {
				g.ctrl.RestoreState(r)
			}
		}
		if err := r.Done(); err != nil {
			return fmt.Errorf("gpu: %s section: %w", sectionNames[i], err)
		}
	}
	g.activateAll()
	return nil
}

// Restore builds a GPU from cfg and prog (which must be freshly constructed
// from the same inputs as the checkpointed run) and overwrites its state with
// the snapshot, which it leaves unchanged: one snapshot restores any number
// of times.
func Restore(cfg config.Config, prog workload.Program, st State) (*GPU, error) {
	g, err := New(cfg, prog)
	if err != nil {
		return nil, err
	}
	if err := g.RestoreState(st); err != nil {
		return nil, err
	}
	return g, nil
}

// Section is one part of a State's wire form.
type Section struct {
	Name  string
	Bytes int
}

// Outline is what a State says about the run it was taken from, read
// without a GPU to restore it onto ("why is this blob big", "where was the
// run").
type Outline struct {
	Sections         []Section
	Mode             config.LLCMode
	Apps             int // per-application modes (multi-program runs only)
	ReconfigCount    uint64
	StallCycles      uint64
	SMs, Slices, MCs int
	Prog             workload.ProgramState
}

// Outline reads the outline from the machine and program sections and the
// counts each component section starts with.
func (st *State) Outline() (Outline, error) {
	var o Outline
	for i, name := range sectionNames {
		o.Sections = append(o.Sections, Section{Name: name, Bytes: st.Lengths[i]})
	}
	var g GPU
	r := wire.NewReader(st.section(secMachine))
	g.readMachine(r)
	if err := r.Done(); err != nil {
		return o, fmt.Errorf("gpu: machine section: %w", err)
	}
	o.Mode, o.Apps, o.ReconfigCount, o.StallCycles = g.mode, len(g.appModes), g.reconfigCount, g.stallCycles
	for i, n := range []*int{&o.SMs, &o.Slices, &o.MCs} {
		r := wire.NewReader(st.section(secSMs + i))
		if *n = int(r.Uvarint()); r.Err() != nil {
			return o, fmt.Errorf("gpu: %s section: %w", sectionNames[secSMs+i], r.Err())
		}
	}
	r = wire.NewReader(st.section(secProgram))
	o.Prog.ReadFrom(r)
	if err := r.Done(); err != nil {
		return o, fmt.Errorf("gpu: program section: %w", err)
	}
	return o, nil
}
