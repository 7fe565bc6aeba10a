package trace

import (
	"fmt"

	"repro/internal/wire"
	"repro/internal/workload"
)

const progKindPlayer = "trace.Player"

// A Player's execution position goes on the wire straight from its fields:
// how far into the current pass the reader is, the kernel-alignment
// bookkeeping, then per replay queue its marker count, whether it ever
// received an op, and the buffered read-ahead entries. The trace content
// itself is not part of the state — a restored player re-reads the same
// file, so the checkpoint key must cover the trace content (simstore
// fingerprints hash it).

// SaveProgState implements workload.Checkpointable.
func (p *Player) SaveProgState() (workload.ProgramState, error) {
	if p.err != nil {
		return workload.ProgramState{}, fmt.Errorf("trace: cannot checkpoint a failed player: %w", p.err)
	}
	b := wire.AppendUvarint(nil, p.consumed)
	b = wire.AppendInt(b, p.kernel)
	b = wire.AppendInt(b, p.appID)
	b = wire.AppendBool(b, p.ended)
	b = wire.AppendUvarint(b, p.loops)
	b = wire.AppendUvarint(b, p.drainOps)
	b = wire.AppendUvarint(b, uint64(len(p.queues)))
	for i, q := range p.queues {
		b = wire.AppendInt(b, p.crossed[i])
		b = wire.AppendBool(b, p.opsSeen[i])
		b = wire.AppendUvarint(b, uint64(len(q)))
		for j := range q {
			b = q[j].op.AppendTo(b)
			b = wire.AppendBool(b, q[j].kernel)
		}
	}
	return workload.ProgramState{Kind: progKindPlayer, Data: b}, nil
}

// RestoreProgState implements workload.Checkpointable. The receiver must be
// freshly built via NewPlayer on the same trace file: the reader is
// fast-forwarded by discarding the events the snapshot had already consumed
// this pass (every pass reads the identical file from the start), and the
// buffered queues are then overwritten wholesale. A player whose restore
// failed must be discarded.
func (p *Player) RestoreProgState(ps workload.ProgramState) error {
	if ps.Kind != progKindPlayer {
		return fmt.Errorf("trace: program state kind %q, want %q", ps.Kind, progKindPlayer)
	}
	r := wire.NewReader(ps.Data)
	consumed := r.Uvarint()
	kernel, appID := r.Int(), r.Int()
	ended := r.Bool()
	loops, drainOps := r.Uvarint(), r.Uvarint()
	queues := r.Count(3)
	if err := r.Err(); err != nil {
		return fmt.Errorf("trace: decode player state: %w", err)
	}
	if queues != len(p.queues) {
		return fmt.Errorf("trace: player state has %d queues, player has %d (geometry changed?)", queues, len(p.queues))
	}
	// Every pass reads the identical file from the start, so only the
	// within-pass offset matters, regardless of how many rewinds preceded the
	// snapshot. When the pass already ended, the reader is never touched
	// again before a rewind replaces it, so its position is irrelevant.
	if !ended {
		for i := uint64(0); i < consumed; i++ {
			if _, err := p.r.Next(); err != nil {
				return fmt.Errorf("trace: fast-forwarding to event %d/%d: %w", i, consumed, err)
			}
		}
	}
	for i := range p.queues {
		p.crossed[i] = r.Int()
		p.opsSeen[i] = r.Bool()
		q := wire.Resize(p.queues[i], r.Count(5))
		for j := range q {
			q[j].op.ReadFrom(r)
			q[j].kernel = r.Bool()
		}
		p.queues[i] = q
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("trace: decode player state: %w", err)
	}
	p.kernel = kernel
	p.SetApp(appID)
	p.ended = ended
	p.loops = loops
	p.drainOps = drainOps
	p.consumed = consumed
	return nil
}
