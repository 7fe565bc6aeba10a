package trace

import (
	"fmt"
	"io"

	"repro/internal/config"
	"repro/internal/workload"
)

// EOFPolicy selects what a Player does when the trace is exhausted.
type EOFPolicy int

const (
	// EOFDrain parks warps whose stream is exhausted: they receive long-latency
	// no-ops and effectively retire, so the run winds down naturally.
	EOFDrain EOFPolicy = iota
	// EOFLoop rewinds the trace and replays it again, turning a finite
	// recording into an unbounded workload (steady-state and sweep studies).
	EOFLoop
)

func (p EOFPolicy) String() string {
	switch p {
	case EOFDrain:
		return "drain"
	case EOFLoop:
		return "loop"
	default:
		return fmt.Sprintf("EOFPolicy(%d)", int(p))
	}
}

// drainALULatency parks a drained warp for ~1M cycles per issued no-op, so an
// exhausted stream contributes (almost) no instructions to the run.
const drainALULatency = 1 << 20

// entry is one element of a per-stream replay queue: either an operation or
// a kernel-boundary marker.
type entry struct {
	op     workload.Op
	kernel bool
}

// Player replays a recorded trace as a workload.Program.
//
// Replay is deterministic: under the configuration the trace was recorded
// with (same geometry, cycles and kernel count), the simulator issues the
// exact recorded op stream and reproduces the recorded run's statistics
// bit for bit.
//
// When the replay geometry differs from the recorded one, the recorded warp
// streams and the replaying warps are both folded modulo
// min(recordedWarps, replayWarps) onto a shared set of stream queues:
// every recorded op is eventually issued and every replaying warp receives
// work, at the cost of interleaving streams. Kernel boundaries are kept
// approximately aligned — each queue discards at most the unconsumed tail of
// the previous kernel segment when NextKernel arrives early, and skips
// markers it has already crossed when it arrives late.
//
// The Player reads the trace incrementally: only the read-ahead imbalance
// between warps is buffered, never the whole trace.
type Player struct {
	path   string
	r      *Reader
	hdr    Header
	policy EOFPolicy

	warpsPerSM int // replay geometry
	numQueues  int

	queues  [][]entry
	crossed []int  // kernel markers consumed per queue
	opsSeen []bool // queue ever received a recorded op (false = no stream folds here)
	kernel  int    // NextKernel calls so far

	appID      int
	addrOffset uint64
	smApp      []int

	ended    bool   // current pass hit the end-of-trace marker
	loops    uint64 // completed rewinds (EOFLoop)
	drainOps uint64 // no-ops issued after exhaustion (EOFDrain)
	consumed uint64 // events read from the reader in the current pass
	err      error
}

// NewPlayer opens the trace at path for replay on a GPU described by cfg.
func NewPlayer(path string, cfg config.Config, policy EOFPolicy) (*Player, error) {
	cfg = cfg.Normalize()
	if cfg.NumSMs <= 0 || cfg.MaxWarpsPerSM <= 0 {
		return nil, fmt.Errorf("trace: invalid replay geometry (SMs=%d warps=%d)", cfg.NumSMs, cfg.MaxWarpsPerSM)
	}
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	hdr := r.Header()
	replayTotal := cfg.NumSMs * cfg.MaxWarpsPerSM
	numQueues := min(hdr.TotalWarps(), replayTotal)
	p := &Player{
		path:       path,
		r:          r,
		hdr:        hdr,
		policy:     policy,
		warpsPerSM: cfg.MaxWarpsPerSM,
		numQueues:  numQueues,
		queues:     make([][]entry, numQueues),
		crossed:    make([]int, numQueues),
		opsSeen:    make([]bool, numQueues),
	}
	if len(hdr.SMApp) > 0 {
		p.smApp = make([]int, cfg.NumSMs)
		for i := range p.smApp {
			p.smApp[i] = hdr.SMApp[i%len(hdr.SMApp)]
		}
	}
	return p, nil
}

// Header returns the trace header.
func (p *Player) Header() Header { return p.hdr }

// Err returns the first trace-reading error, if any. A Player degrades to
// draining on error so the simulation finishes; callers check Err afterwards.
func (p *Player) Err() error { return p.err }

// Loops returns how many times the trace has been rewound (EOFLoop).
func (p *Player) Loops() uint64 { return p.loops }

// DrainOps returns how many park no-ops were issued after exhaustion.
func (p *Player) DrainOps() uint64 { return p.drainOps }

// SetApp assigns an application identity and a disjoint address-space offset
// for multi-program co-execution, mirroring Generator.SetApp. It only makes
// sense for single-program traces (a multi-program trace already has
// per-application offsets baked into its addresses).
func (p *Player) SetApp(appID int) {
	p.appID = appID
	p.addrOffset = uint64(appID) << 40
}

// AppOf returns the application recorded for the given SM (remapped when the
// replay geometry differs).
func (p *Player) AppOf(sm int) int {
	if len(p.smApp) == 0 {
		return 0
	}
	return p.smApp[sm%len(p.smApp)]
}

// Apps returns the number of applications recorded in the trace.
func (p *Player) Apps() int { return max(p.hdr.Apps, 1) }

// queueFor folds a replaying warp onto its stream queue.
func (p *Player) queueFor(sm, warpSlot int) int {
	return (sm*p.warpsPerSM + warpSlot) % p.numQueues
}

// queueOf folds a recorded warp onto its stream queue.
func (p *Player) queueOf(sm, warpSlot int) int {
	return (sm*p.hdr.MaxWarpsPerSM + warpSlot) % p.numQueues
}

// fill reads trace events until queue q receives an entry or the trace ends.
// Events for other queues are buffered in stream order.
func (p *Player) fill(q int) {
	for len(p.queues[q]) == 0 && !p.ended {
		ev, err := p.r.Next()
		if err != nil {
			p.ended = true
			if err != io.EOF && p.err == nil {
				p.err = err
			}
			return
		}
		p.consumed++
		switch ev.Kind {
		case EventKernel:
			for i := range p.queues {
				p.queues[i] = append(p.queues[i], entry{kernel: true})
			}
		case EventOp:
			dst := p.queueOf(ev.SM, ev.Warp)
			p.queues[dst] = append(p.queues[dst], entry{op: ev.Op})
			p.opsSeen[dst] = true
		}
	}
}

// rewind reopens the trace for another pass (EOFLoop). It returns false if
// the trace cannot be reopened, in which case the Player drains instead.
func (p *Player) rewind() bool {
	p.r.Close()
	r, err := Open(p.path)
	if err != nil {
		if p.err == nil {
			p.err = err
		}
		return false
	}
	p.r = r
	p.ended = false
	p.loops++
	p.consumed = 0
	// A fresh pass starts at the current kernel: forget marker debt so the
	// skip logic does not consume the new pass's segments.
	for i := range p.crossed {
		p.crossed[i] = p.kernel
	}
	return true
}

// NextOp implements workload.Program.
func (p *Player) NextOp(sm, warpSlot int) workload.Op {
	q := p.queueFor(sm, warpSlot)
	rewound := false
	for {
		if len(p.queues[q]) == 0 {
			p.fill(q)
		}
		if len(p.queues[q]) == 0 {
			// Stream exhausted. Rewinding only helps a queue that some
			// recorded stream folds onto (the trace content is fixed, so a
			// queue that saw no op in a full pass never will), and at most
			// once per call — otherwise a warp slot with no recorded ops
			// would re-buffer the trace forever without ever returning.
			if p.policy == EOFLoop && p.err == nil && p.opsSeen[q] && !rewound && p.rewind() {
				rewound = true
				continue
			}
			p.drainOps++
			return workload.Op{ALULatency: drainALULatency}
		}
		e := p.queues[q][0]
		p.queues[q] = p.queues[q][1:]
		if e.kernel {
			p.crossed[q]++
			continue
		}
		op := e.op
		if op.IsMem {
			op.Addr += p.addrOffset
		}
		return op
	}
}

// NextKernel implements workload.Program. Queues that have not yet reached
// the recorded boundary fast-forward past it (discarding the unconsumed tail
// of the previous kernel segment); queues that already crossed it are left
// alone. In an aligned replay every queue's head is exactly the marker, so
// nothing is discarded.
func (p *Player) NextKernel() {
	p.kernel++
	for q := range p.queues {
		for p.crossed[q] < p.kernel {
			if len(p.queues[q]) == 0 {
				p.fill(q)
			}
			if len(p.queues[q]) == 0 {
				// Trace over: nothing left to skip.
				p.crossed[q] = p.kernel
				break
			}
			e := p.queues[q][0]
			p.queues[q] = p.queues[q][1:]
			if e.kernel {
				p.crossed[q]++
			}
		}
	}
}

// Kernel implements workload.Program.
func (p *Player) Kernel() int { return p.kernel }

// Close releases the underlying trace reader.
func (p *Player) Close() error { return p.r.Close() }
