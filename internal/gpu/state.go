package gpu

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/llc"
	"repro/internal/noc"
	"repro/internal/sm"
	"repro/internal/wire"
	"repro/internal/workload"
)

// State is a complete snapshot of a GPU mid-simulation: every component's
// architectural and statistical state plus the top-level mode machinery and
// collectors. Restoring it onto a freshly constructed GPU built from the same
// configuration and workload inputs reproduces the remainder of the run
// cycle-for-cycle, so an interrupted and a resumed run yield byte-identical
// statistics.
//
// The snapshot holds only exported value types (no pointers except the
// implicit ones inside slices). AppendTo / ReadFrom are its wire form, the
// payload of a checkpoint file.
type State struct {
	Cycle    uint64
	RunStart uint64

	Mode     config.LLCMode
	AppModes []config.LLCMode

	// Reconfiguration state machine.
	ReconfigActive  bool
	ReconfigStarted uint64
	StallUntil      uint64

	// Collectors.
	GatedCycles      uint64
	StallCycles      uint64
	ReconfigCount    uint64
	SharerBuckets    [4]uint64
	SharerTotal      uint64
	SharerWindowEnd  uint64
	KernelBoundaries []uint64
	ModeCycles       [3]uint64

	// Components.
	SMs     []sm.State
	Slices  []llc.SliceState
	MCs     []dram.State
	ReqNet  noc.NetState
	RepNet  noc.NetState
	HasCtrl bool
	Ctrl    core.State
	Prog    workload.ProgramState
}

// SaveState captures the GPU's complete mutable state. It fails if the
// workload program does not support checkpointing.
func (g *GPU) SaveState() (State, error) {
	var st State
	err := g.SaveStateInto(&st)
	return st, err
}

// SaveStateInto is SaveState reusing the backing arrays st already has, so
// a caller that snapshots repeatedly pays for one State. On error st holds
// nothing usable.
func (g *GPU) SaveStateInto(st *State) error {
	cp, ok := g.prog.(workload.Checkpointable)
	if !ok {
		return fmt.Errorf("gpu: program %T is not checkpointable", g.prog)
	}
	var err error
	if st.Prog, err = cp.SaveProgState(); err != nil {
		return fmt.Errorf("gpu: %w", err)
	}

	// What ticking every SM and slice every cycle would have left.
	g.settleSMs(g.cycle)
	for _, s := range g.slices {
		s.SetCycle(g.cycle)
	}
	st.Cycle = g.cycle
	st.RunStart = g.runStart
	st.Mode = g.mode
	st.AppModes = append(st.AppModes[:0], g.appModes...)
	st.ReconfigActive = g.reconfigActive
	st.ReconfigStarted = g.reconfigStarted
	st.StallUntil = g.stallUntil
	st.GatedCycles = g.gatedCycles
	st.StallCycles = g.stallCycles
	st.ReconfigCount = g.reconfigCount
	st.SharerBuckets = g.sharerBuckets
	st.SharerTotal = g.sharerTotal
	st.SharerWindowEnd = g.sharerWindowEnd
	st.KernelBoundaries = append(st.KernelBoundaries[:0], g.kernelBoundaries...)
	st.ModeCycles = g.modeCycles

	st.SMs = wire.Resize(st.SMs, len(g.sms))
	for i, s := range g.sms {
		s.SaveStateInto(&st.SMs[i])
	}
	st.Slices = wire.Resize(st.Slices, len(g.slices))
	for i, s := range g.slices {
		s.SaveStateInto(&st.Slices[i])
	}
	st.MCs = wire.Resize(st.MCs, len(g.mcs))
	for i, mc := range g.mcs {
		mc.SaveStateInto(&st.MCs[i])
	}
	if err := noc.SaveStateInto(g.reqNet, &st.ReqNet); err != nil {
		return fmt.Errorf("gpu: request net: %w", err)
	}
	if err := noc.SaveStateInto(g.repNet, &st.RepNet); err != nil {
		return fmt.Errorf("gpu: reply net: %w", err)
	}
	st.HasCtrl = g.ctrl != nil
	if g.ctrl != nil {
		g.ctrl.SaveStateInto(&st.Ctrl)
	} else {
		st.Ctrl = core.State{}
	}
	return nil
}

// Section is one part of a State's wire form.
type Section struct {
	Name  string
	Bytes int
}

type section struct {
	name   string
	append func([]byte) []byte
	read   func(*wire.Reader)
}

// sections lists the parts of the wire form in the order they are written:
// AppendTo, ReadFrom and Sections all walk this one list. The element counts
// are validated against the fewest bytes an element can encode to (a byte
// per field, roughly), which keeps what a forged count can make ReadFrom
// allocate within a small multiple of the input.
func (st *State) sections() []section {
	return []section{
		{"machine", st.appendMachine, st.readMachine},
		{"SMs", func(b []byte) []byte { return appendEach(b, st.SMs) }, func(r *wire.Reader) { st.SMs = readEach(r, st.SMs, 32) }},
		{"LLC", func(b []byte) []byte { return appendEach(b, st.Slices) }, func(r *wire.Reader) { st.Slices = readEach(r, st.Slices, 32) }},
		{"DRAM", func(b []byte) []byte { return appendEach(b, st.MCs) }, func(r *wire.Reader) { st.MCs = readEach(r, st.MCs, 16) }},
		{"NoC", func(b []byte) []byte { return st.RepNet.AppendTo(st.ReqNet.AppendTo(b)) }, func(r *wire.Reader) { st.ReqNet.ReadFrom(r); st.RepNet.ReadFrom(r) }},
		{"controller", st.appendCtrl, st.readCtrl},
		{"program", st.Prog.AppendTo, st.Prog.ReadFrom},
	}
}

// appendEach appends a counted run of component states.
func appendEach[T any, P interface {
	*T
	AppendTo([]byte) []byte
}](b []byte, xs []T) []byte {
	b = wire.AppendUvarint(b, uint64(len(xs)))
	for i := range xs {
		b = P(&xs[i]).AppendTo(b)
	}
	return b
}

// readEach reads a counted run of component states, each at least minBytes
// on the wire, into xs's backing array.
func readEach[T any, P interface {
	*T
	ReadFrom(*wire.Reader)
}](r *wire.Reader, xs []T, minBytes int) []T {
	xs = wire.Resize(xs, r.Count(minBytes))
	for i := range xs {
		P(&xs[i]).ReadFrom(r)
	}
	return xs
}

// AppendTo appends the state's wire form to b. The state must be consistent
// (parallel columns of equal length), as SaveState and ReadFrom leave it.
func (st *State) AppendTo(b []byte) []byte {
	for _, s := range st.sections() {
		b = s.append(b)
	}
	return b
}

// ReadFrom overwrites the state with the one in r, reusing the backing
// arrays it already has; a failure is left in r (check r.Done or r.Err). It
// checks the input only as far as decoding safely requires; whether the
// state fits a GPU is RestoreState's question.
func (st *State) ReadFrom(r *wire.Reader) {
	for _, s := range st.sections() {
		s.read(r)
	}
}

// Sections returns the encoded size of each part of the state, in wire
// order ("why is this blob big").
func (st *State) Sections() []Section {
	var out []Section
	var buf []byte
	for _, s := range st.sections() {
		buf = s.append(buf[:0])
		out = append(out, Section{Name: s.name, Bytes: len(buf)})
	}
	return out
}

// appendMachine writes the top-level scalars: clocks, the mode and
// reconfiguration state machine, and the collectors.
func (st *State) appendMachine(b []byte) []byte {
	b = wire.AppendUvarint(b, st.Cycle)
	b = wire.AppendUvarint(b, st.RunStart)
	b = wire.AppendInt(b, int(st.Mode))
	b = wire.AppendUvarint(b, uint64(len(st.AppModes)))
	for _, m := range st.AppModes {
		b = wire.AppendInt(b, int(m))
	}
	b = wire.AppendBool(b, st.ReconfigActive)
	b = wire.AppendUvarint(b, st.ReconfigStarted)
	b = wire.AppendUvarint(b, st.StallUntil)
	b = wire.AppendUvarint(b, st.GatedCycles)
	b = wire.AppendUvarint(b, st.StallCycles)
	b = wire.AppendUvarint(b, st.ReconfigCount)
	b = wire.AppendUvarints(b, st.SharerBuckets[:])
	b = wire.AppendUvarint(b, st.SharerTotal)
	b = wire.AppendUvarint(b, st.SharerWindowEnd)
	b = wire.AppendUvarint(b, uint64(len(st.KernelBoundaries)))
	b = wire.AppendUvarints(b, st.KernelBoundaries)
	return wire.AppendUvarints(b, st.ModeCycles[:])
}

func (st *State) readMachine(r *wire.Reader) {
	st.Cycle = r.Uvarint()
	st.RunStart = r.Uvarint()
	st.Mode = config.LLCMode(r.Int())
	st.AppModes = wire.Resize(st.AppModes, r.Count(1))
	for i := range st.AppModes {
		st.AppModes[i] = config.LLCMode(r.Int())
	}
	st.ReconfigActive = r.Bool()
	st.ReconfigStarted = r.Uvarint()
	st.StallUntil = r.Uvarint()
	st.GatedCycles = r.Uvarint()
	st.StallCycles = r.Uvarint()
	st.ReconfigCount = r.Uvarint()
	for i := range st.SharerBuckets {
		st.SharerBuckets[i] = r.Uvarint()
	}
	st.SharerTotal = r.Uvarint()
	st.SharerWindowEnd = r.Uvarint()
	st.KernelBoundaries = r.Uvarints(st.KernelBoundaries, r.Count(1))
	for i := range st.ModeCycles {
		st.ModeCycles[i] = r.Uvarint()
	}
}

func (st *State) appendCtrl(b []byte) []byte {
	b = wire.AppendBool(b, st.HasCtrl)
	if st.HasCtrl {
		b = st.Ctrl.AppendTo(b)
	}
	return b
}

func (st *State) readCtrl(r *wire.Reader) {
	st.HasCtrl = r.Bool()
	if st.HasCtrl {
		st.Ctrl.ReadFrom(r)
	} else {
		st.Ctrl = core.State{}
	}
}

// RestoreState overwrites the GPU's mutable state with a snapshot taken from
// a GPU built under the same configuration and workload inputs. Mode-derived
// physical state (slice write policies, NoC bypass) comes back through the
// component snapshots, so no SetAppModes/applyMode side effects are replayed.
func (g *GPU) RestoreState(st State) error {
	if len(st.SMs) != len(g.sms) {
		return fmt.Errorf("gpu: snapshot has %d SMs, GPU has %d", len(st.SMs), len(g.sms))
	}
	if len(st.Slices) != len(g.slices) {
		return fmt.Errorf("gpu: snapshot has %d LLC slices, GPU has %d", len(st.Slices), len(g.slices))
	}
	if len(st.MCs) != len(g.mcs) {
		return fmt.Errorf("gpu: snapshot has %d memory controllers, GPU has %d", len(st.MCs), len(g.mcs))
	}
	if st.HasCtrl != (g.ctrl != nil) {
		return fmt.Errorf("gpu: snapshot controller presence (%v) does not match configuration (%v)", st.HasCtrl, g.ctrl != nil)
	}
	cp, ok := g.prog.(workload.Checkpointable)
	if !ok {
		return fmt.Errorf("gpu: program %T is not checkpointable", g.prog)
	}
	if err := cp.RestoreProgState(st.Prog); err != nil {
		return fmt.Errorf("gpu: %w", err)
	}

	for i, s := range g.sms {
		if err := s.RestoreState(st.SMs[i]); err != nil {
			return fmt.Errorf("gpu: %w", err)
		}
	}
	for i, s := range g.slices {
		if err := s.RestoreState(st.Slices[i]); err != nil {
			return fmt.Errorf("gpu: %w", err)
		}
	}
	for i, mc := range g.mcs {
		if err := mc.RestoreState(st.MCs[i]); err != nil {
			return fmt.Errorf("gpu: %w", err)
		}
	}
	if err := noc.RestoreState(g.reqNet, st.ReqNet); err != nil {
		return fmt.Errorf("gpu: request net: %w", err)
	}
	if err := noc.RestoreState(g.repNet, st.RepNet); err != nil {
		return fmt.Errorf("gpu: reply net: %w", err)
	}
	if g.ctrl != nil {
		if err := g.ctrl.RestoreState(st.Ctrl); err != nil {
			return fmt.Errorf("gpu: %w", err)
		}
	}

	g.cycle = st.Cycle
	g.runStart = st.RunStart
	g.mode = st.Mode
	g.appModes = append([]config.LLCMode(nil), st.AppModes...)
	g.reconfigActive = st.ReconfigActive
	g.reconfigStarted = st.ReconfigStarted
	g.stallUntil = st.StallUntil
	g.gatedCycles = st.GatedCycles
	g.stallCycles = st.StallCycles
	g.reconfigCount = st.ReconfigCount
	g.sharerBuckets = st.SharerBuckets
	g.sharerTotal = st.SharerTotal
	g.sharerWindowEnd = st.SharerWindowEnd
	g.kernelBoundaries = append([]uint64(nil), st.KernelBoundaries...)
	g.modeCycles = st.ModeCycles
	g.activateAll()
	return nil
}

// Restore builds a GPU from cfg and prog (which must be freshly constructed
// from the same inputs as the checkpointed run) and overwrites its state with
// the snapshot.
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
