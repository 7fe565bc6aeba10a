package workload

import (
	"fmt"

	"repro/internal/wire"
)

// ProgramState is a serialized snapshot of a Program's execution position.
// Kind names the concrete implementation, Data its state in that
// implementation's wire form; Subs carries the children of composite
// programs.
type ProgramState struct {
	Kind string
	Data []byte
	Subs []ProgramState
}

// AppendTo appends the state's wire form: kind, data, the counted children.
func (ps *ProgramState) AppendTo(b []byte) []byte {
	b = wire.AppendString(b, ps.Kind)
	b = wire.AppendBytes(b, ps.Data)
	b = wire.AppendUvarint(b, uint64(len(ps.Subs)))
	for i := range ps.Subs {
		b = ps.Subs[i].AppendTo(b)
	}
	return b
}

// maxProgramDepth bounds the nesting ReadFrom follows; real programs nest
// one level (a MultiProgram of generators).
const maxProgramDepth = 4

// ReadFrom overwrites the state with the next one in r, reusing the backing
// arrays it already has.
func (ps *ProgramState) ReadFrom(r *wire.Reader) { ps.readFrom(r, maxProgramDepth) }

func (ps *ProgramState) readFrom(r *wire.Reader, depth int) {
	if depth == 0 {
		r.Fail("workload: program state nests deeper than %d", maxProgramDepth)
		return
	}
	ps.Kind = r.String()
	ps.Data = r.Bytes(ps.Data)
	ps.Subs = wire.Resize(ps.Subs, r.Count(3))
	for i := range ps.Subs {
		ps.Subs[i].readFrom(r, depth-1)
	}
}

// AppendTo appends the operation's wire form to b.
func (o *Op) AppendTo(b []byte) []byte {
	b = wire.AppendBool(b, o.IsMem)
	b = wire.AppendBool(b, o.Write)
	b = wire.AppendUvarint(b, o.Addr)
	return wire.AppendInt(b, o.ALULatency)
}

// ReadFrom overwrites the operation with the next one in r.
func (o *Op) ReadFrom(r *wire.Reader) {
	o.IsMem = r.Bool()
	o.Write = r.Bool()
	o.Addr = r.Uvarint()
	o.ALULatency = r.Int()
}

// Checkpointable is implemented by programs that can be snapshotted and
// fast-forwarded. Restore is a method on a freshly constructed program built
// from the same inputs (spec, config, seed) — the state captures
// only the execution position, not the program's identity.
type Checkpointable interface {
	SaveProgState() (ProgramState, error)
	RestoreProgState(st ProgramState) error
}

const progKindGenerator = "workload.Generator"

// A Generator's execution position goes on the wire straight from its
// fields, with no mirror struct between — the rule every checkpointed
// component follows: the RNG stream position first (so
// StreamPositions reads it and stops), the seed and the scalars, the RNG
// register as a flat run of fixed words — random bits gain nothing from
// varints, and storing the register whole makes restoring a copy whose cost
// does not depend on how far the run had progressed — then every warp's
// private and kernel-start positions as two varint columns (the CTA
// identity is re-derived by construction).

// SaveProgState implements Checkpointable.
func (g *Generator) SaveProgState() (ProgramState, error) {
	// Room for the register and three bytes a warp; positions are small.
	b := make([]byte, 0, 128+8*lfgLen+3*g.warpCount())
	b = wire.AppendUvarint(b, g.rng.draws)
	b = wire.AppendUvarint(b, uint64(g.seed))
	b = wire.AppendInt(b, g.rng.tap)
	b = wire.AppendInt(b, g.rng.feed)
	b = wire.AppendInt(b, g.kernel)
	b = wire.AppendUvarint(b, g.globalFrontier)
	b = wire.AppendUvarint(b, g.sharedCount)
	b = wire.AppendInt(b, g.appID)
	b = wire.AppendUvarint(b, g.totalOps)
	b = wire.AppendUvarint(b, g.totalMemOps)
	b = wire.AppendUvarint(b, g.totalShared)
	b = wire.AppendUvarint(b, g.totalPrivate)
	for _, w := range g.rng.vec {
		b = wire.AppendUint64(b, w)
	}
	b = wire.AppendUvarint(b, uint64(g.warpCount()))
	g.eachWarp(func(ws *warpState) { b = wire.AppendUvarint(b, ws.privPos) })
	g.eachWarp(func(ws *warpState) { b = wire.AppendUvarint(b, ws.startPos) })
	return ProgramState{Kind: progKindGenerator, Data: b}, nil
}

// warpColumns is how many per-warp columns a snapshot carries.
const warpColumns = 2

func (g *Generator) eachWarp(fn func(*warpState)) {
	for i := range g.warps {
		fn(&g.warps[i])
	}
}

func (g *Generator) warpCount() int { return len(g.warps) }

// StreamPositions returns the RNG stream position (draws consumed) of every
// synthetic generator in a program snapshot, in application order.
func StreamPositions(ps ProgramState) ([]uint64, error) {
	var draws []uint64
	if ps.Kind == progKindGenerator {
		r := wire.NewReader(ps.Data)
		draws = append(draws, r.Uvarint())
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("workload: decode generator state: %w", err)
		}
	}
	for _, sub := range ps.Subs {
		d, err := StreamPositions(sub)
		if err != nil {
			return nil, err
		}
		draws = append(draws, d...)
	}
	return draws, nil
}

// RestoreProgState implements Checkpointable. The receiver must be freshly
// built via NewGenerator with the same spec, config and seed; a state from
// another seed or geometry is refused before anything is overwritten, and a
// generator whose restore failed any later must be discarded.
func (g *Generator) RestoreProgState(ps ProgramState) error {
	if ps.Kind != progKindGenerator {
		return fmt.Errorf("workload: program state kind %q, want %q", ps.Kind, progKindGenerator)
	}
	r := wire.NewReader(ps.Data)
	draws := r.Uvarint()
	seed := int64(r.Uvarint())
	tap, feed := r.Int(), r.Int()
	kernel := r.Int()
	frontier, sharedCount := r.Uvarint(), r.Uvarint()
	appID := r.Int()
	ops, memOps, shared, private := r.Uvarint(), r.Uvarint(), r.Uvarint(), r.Uvarint()
	var vec [lfgLen]uint64
	for i := range vec {
		vec[i] = r.Uint64()
	}
	warps := r.Count(warpColumns)
	if err := r.Err(); err != nil {
		return fmt.Errorf("workload: decode generator state: %w", err)
	}
	if seed != g.seed {
		return fmt.Errorf("workload: generator state for seed %d restored onto seed %d", seed, g.seed)
	}
	if want := g.warpCount(); warps != want {
		return fmt.Errorf("workload: generator state has %d warps, generator has %d", warps, want)
	}
	if err := g.rng.restore(vec[:], tap, feed, draws); err != nil {
		return err
	}
	g.eachWarp(func(ws *warpState) { ws.privPos = r.Uvarint() })
	g.eachWarp(func(ws *warpState) { ws.startPos = r.Uvarint() })
	if err := r.Done(); err != nil {
		return fmt.Errorf("workload: decode generator state: %w", err)
	}
	g.kernel = kernel
	g.globalFrontier = frontier
	g.sharedCount = sharedCount
	g.SetApp(appID)
	g.totalOps = ops
	g.totalMemOps = memOps
	g.totalShared = shared
	g.totalPrivate = private
	return nil
}

const progKindMulti = "workload.MultiProgram"

// SaveProgState implements Checkpointable: a multi-program snapshot is the
// snapshots of its children, in application order.
func (m *MultiProgram) SaveProgState() (ProgramState, error) {
	st := ProgramState{Kind: progKindMulti, Subs: make([]ProgramState, len(m.progs))}
	for i, g := range m.progs {
		sub, err := g.SaveProgState()
		if err != nil {
			return ProgramState{}, fmt.Errorf("workload: program %d: %w", i, err)
		}
		st.Subs[i] = sub
	}
	return st, nil
}

// RestoreProgState implements Checkpointable. The receiver must be freshly
// built with the same programs in the same order.
func (m *MultiProgram) RestoreProgState(ps ProgramState) error {
	if ps.Kind != progKindMulti {
		return fmt.Errorf("workload: program state kind %q, want %q", ps.Kind, progKindMulti)
	}
	if len(ps.Subs) != len(m.progs) {
		return fmt.Errorf("workload: program state has %d applications, multi-program has %d", len(ps.Subs), len(m.progs))
	}
	for i, g := range m.progs {
		if err := g.RestoreProgState(ps.Subs[i]); err != nil {
			return fmt.Errorf("workload: program %d: %w", i, err)
		}
	}
	return nil
}
