package workload

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// ProgramState is a serialized snapshot of a Program's execution position.
// Kind names the concrete implementation, Data its gob-encoded state; Subs
// carries the children of composite programs.
type ProgramState struct {
	Kind string
	Data []byte
	Subs []ProgramState
}

// Checkpointable is implemented by programs that can be snapshotted and
// fast-forwarded. Restore is a method on a freshly constructed program built
// from the same inputs (spec, config, seed, trace file) — the state captures
// only the execution position, not the program's identity.
type Checkpointable interface {
	SaveProgState() (ProgramState, error)
	RestoreProgState(st ProgramState) error
}

// GeneratorWarpState mirrors one warp's sweep position (the CTA identity is
// re-derived by construction).
type GeneratorWarpState struct {
	SweepPos uint64
	PrivPos  uint64
	StartPos uint64
}

// GeneratorState is the execution position of a Generator. The RNG fields
// are the lfg's complete state, so restoring is a copy whose cost does not
// depend on how far the run had progressed.
type GeneratorState struct {
	Seed           int64
	RNGVec         []uint64
	RNGTap         int
	RNGFeed        int
	RNGDraws       uint64
	Kernel         int
	GlobalFrontier uint64
	SharedCount    uint64
	AppID          int
	TotalOps       uint64
	TotalMemOps    uint64
	TotalShared    uint64
	TotalPrivate   uint64
	Warps          []GeneratorWarpState
}

const progKindGenerator = "workload.Generator"

// SaveProgState implements Checkpointable.
func (g *Generator) SaveProgState() (ProgramState, error) {
	st := GeneratorState{
		Seed:           g.seed,
		RNGVec:         g.rng.vec[:], // encoded below, before the stream moves on
		RNGTap:         g.rng.tap,
		RNGFeed:        g.rng.feed,
		RNGDraws:       g.rng.draws,
		Kernel:         g.kernel,
		GlobalFrontier: g.globalFrontier,
		SharedCount:    g.sharedCount,
		AppID:          g.appID,
		TotalOps:       g.totalOps,
		TotalMemOps:    g.totalMemOps,
		TotalShared:    g.totalShared,
		TotalPrivate:   g.totalPrivate,
	}
	for s := range g.warps {
		for w := range g.warps[s] {
			ws := g.warps[s][w]
			st.Warps = append(st.Warps, GeneratorWarpState{
				SweepPos: ws.sweepPos,
				PrivPos:  ws.privPos,
				StartPos: ws.startPos,
			})
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return ProgramState{}, fmt.Errorf("workload: encode generator state: %w", err)
	}
	return ProgramState{Kind: progKindGenerator, Data: buf.Bytes()}, nil
}

// decodeGeneratorState parses the Data of a generator's ProgramState.
func decodeGeneratorState(ps ProgramState) (GeneratorState, error) {
	var st GeneratorState
	if ps.Kind != progKindGenerator {
		return st, fmt.Errorf("workload: program state kind %q, want %q", ps.Kind, progKindGenerator)
	}
	if err := gob.NewDecoder(bytes.NewReader(ps.Data)).Decode(&st); err != nil {
		return st, fmt.Errorf("workload: decode generator state: %w", err)
	}
	return st, nil
}

// StreamPositions returns the RNG stream position (draws consumed) of every
// synthetic generator in a program snapshot, in application order; programs
// of other kinds (trace players) contribute nothing.
func StreamPositions(ps ProgramState) ([]uint64, error) {
	var draws []uint64
	if ps.Kind == progKindGenerator {
		st, err := decodeGeneratorState(ps)
		if err != nil {
			return nil, err
		}
		draws = append(draws, st.RNGDraws)
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
// built via NewGenerator with the same spec, config and seed.
func (g *Generator) RestoreProgState(ps ProgramState) error {
	st, err := decodeGeneratorState(ps)
	if err != nil {
		return err
	}
	if st.Seed != g.seed {
		return fmt.Errorf("workload: generator state for seed %d restored onto seed %d", st.Seed, g.seed)
	}
	want := 0
	for s := range g.warps {
		want += len(g.warps[s])
	}
	if len(st.Warps) != want {
		return fmt.Errorf("workload: generator state has %d warps, generator has %d", len(st.Warps), want)
	}
	if err := g.rng.restore(st.RNGVec, st.RNGTap, st.RNGFeed, st.RNGDraws); err != nil {
		return err
	}
	i := 0
	for s := range g.warps {
		for w := range g.warps[s] {
			ws := st.Warps[i]
			i++
			g.warps[s][w].sweepPos = ws.SweepPos
			g.warps[s][w].privPos = ws.PrivPos
			g.warps[s][w].startPos = ws.StartPos
		}
	}
	g.kernel = st.Kernel
	g.globalFrontier = st.GlobalFrontier
	g.sharedCount = st.SharedCount
	g.SetApp(st.AppID)
	g.totalOps = st.TotalOps
	g.totalMemOps = st.TotalMemOps
	g.totalShared = st.TotalShared
	g.totalPrivate = st.TotalPrivate
	return nil
}

const progKindMulti = "workload.MultiProgram"

// SaveProgState implements Checkpointable: a multi-program snapshot is the
// snapshots of its children, in application order. Every child must itself
// be Checkpointable.
func (m *MultiProgram) SaveProgState() (ProgramState, error) {
	st := ProgramState{Kind: progKindMulti, Subs: make([]ProgramState, len(m.progs))}
	for i, p := range m.progs {
		cp, ok := p.(Checkpointable)
		if !ok {
			return ProgramState{}, fmt.Errorf("workload: program %d (%T) is not checkpointable", i, p)
		}
		sub, err := cp.SaveProgState()
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
	for i, p := range m.progs {
		cp, ok := p.(Checkpointable)
		if !ok {
			return fmt.Errorf("workload: program %d (%T) is not checkpointable", i, p)
		}
		if err := cp.RestoreProgState(ps.Subs[i]); err != nil {
			return fmt.Errorf("workload: program %d: %w", i, err)
		}
	}
	return nil
}
