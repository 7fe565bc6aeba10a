package checkpoint

import (
	"bytes"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/simstore"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Manager stores checkpoints content-addressed in a simstore.Store and
// implements sweep.Checkpointer on top: ResumeSpanned probes the stored
// prefixes of a spec from the furthest kernel boundary back to the warmup
// end, Checkpoint banks newly passed boundaries. All failures degrade to
// cold execution — checkpointing is an accelerator, never a correctness
// dependency — and corrupt blobs are dropped from the store so the next run
// rewrites them.
//
// A Manager is safe for concurrent use by the sweep worker pool.
type Manager struct {
	store *simstore.Store

	hits   atomic.Uint64
	saves  atomic.Uint64
	bytes  atomic.Uint64
	errors atomic.Uint64

	// Timing instruments, registered by Instrument; nil (no-op) otherwise.
	probeSeconds   *obs.Histogram
	restoreSeconds *obs.Histogram
	saveSeconds    *obs.Histogram

	// onSave, if set via OnSave, fires after every banked snapshot with
	// the blob key and encoded bytes (the cluster replication hook).
	onSave func(key [32]byte, data []byte)

	// buffers recycles the buffer a Checkpoint encodes into (*[]byte): the
	// sweep worker pool shares one manager.
	buffers sync.Pool
}

// OnSave registers a post-save hook. Set before the manager is handed to
// workers; not safe to change concurrently with running simulations.
func (m *Manager) OnSave(fn func(key [32]byte, data []byte)) { m.onSave = fn }

var _ sweep.Checkpointer = (*Manager)(nil)

// NewManager wraps a store with checkpoint semantics.
func NewManager(store *simstore.Store) *Manager {
	return &Manager{store: store, buffers: sync.Pool{New: func() any { return new([]byte) }}}
}

// Stats reports the manager's counters: resumed runs, stored snapshots, blob
// bytes written, and swallowed errors.
type Stats struct {
	Hits   uint64
	Saves  uint64
	Bytes  uint64
	Errors uint64
}

// ManagerStats returns a snapshot of the counters.
func (m *Manager) ManagerStats() Stats {
	return Stats{
		Hits:   m.hits.Load(),
		Saves:  m.saves.Load(),
		Bytes:  m.bytes.Load(),
		Errors: m.errors.Load(),
	}
}

// Instrument registers the manager's timing histograms: how long prefix
// probing, state restoration and snapshot saving take. The hit/save/error
// counters stay in ManagerStats (the server samples them at scrape time).
func (m *Manager) Instrument(reg *obs.Registry) {
	m.probeSeconds = reg.Histogram("simd_checkpoint_probe_seconds",
		"Time spent probing the store for a resumable state prefix.", nil)
	m.restoreSeconds = reg.Histogram("simd_checkpoint_restore_seconds",
		"Time spent decoding and restoring a GPU from a stored snapshot.", nil)
	m.saveSeconds = reg.Histogram("simd_checkpoint_save_seconds",
		"Time spent encoding and storing a GPU state snapshot.", nil)
}

// candidate is one stored prefix a run could resume from.
type candidate struct {
	key      [32]byte
	atKernel int
}

// candidates lists the prefixes of spec, furthest first.
func (m *Manager) candidates(spec sweep.RunSpec) []candidate {
	var cands []candidate
	if kernels := spec.Canonical().Kernels; kernels > 1 {
		// One fingerprint serves every boundary.
		fp, _ := simstore.Fingerprint(spec) // never fails
		for k := kernels - 1; k >= 1; k-- {
			cands = append(cands, candidate{key: kernelKey(fp, k), atKernel: k})
		}
	}
	if spec.WarmupCycles > 0 {
		cands = append(cands, candidate{key: warmupKey(spec)})
	}
	return cands
}

// Resume is ResumeSpanned without spans.
func (m *Manager) Resume(spec sweep.RunSpec, newProg func() (workload.Program, error)) (*gpu.GPU, workload.Program, int, bool) {
	return m.ResumeSpanned(spec, newProg, nil)
}

// ResumeSpanned implements sweep.Checkpointer: the probe phase (key
// derivation + blob lookups) and the restore phase (decode + program build +
// state restoration) are recorded as distinct child spans of sp and observed
// into the timing histograms. A nil sp records no spans.
func (m *Manager) ResumeSpanned(spec sweep.RunSpec, newProg func() (workload.Program, error), sp *obs.Span) (*gpu.GPU, workload.Program, int, bool) {
	probeStart := time.Now()
	probe := sp.Child("checkpoint-probe")
	probeEnded := false
	endProbe := func(hit bool) {
		if probeEnded {
			return
		}
		probeEnded = true
		probe.Annotate("hit", hit)
		probe.End()
		m.probeSeconds.ObserveSince(probeStart)
	}

	for _, c := range m.candidates(spec) {
		data, ok := m.store.GetBlob(c.key)
		if !ok {
			continue
		}
		snap, err := Decode(data)
		if err != nil {
			// Corrupt or truncated blob: self-heal and keep probing shorter
			// prefixes.
			m.store.DropBlob(c.key)
			m.errors.Add(1)
			continue
		}
		// A decodable snapshot commits us to the restore phase.
		probe.Annotate("at_kernel", c.atKernel)
		endProbe(true)
		restoreStart := time.Now()
		restore := sp.Child("checkpoint-restore")
		restore.Annotate("at_kernel", c.atKernel)
		prog, err := newProg()
		if err != nil {
			m.errors.Add(1)
			restore.Annotate("error", err.Error())
			restore.End()
			m.restoreSeconds.ObserveSince(restoreStart)
			return nil, nil, 0, false
		}
		g, err := Restore(spec.Config, prog, snap)
		if err != nil {
			// A snapshot whose sections do not parse, or do not fit the
			// freshly built run (stale geometry under a key collision, a
			// partially restored program), is as corrupt as an unframed one.
			m.store.DropBlob(c.key)
			m.errors.Add(1)
			restore.Annotate("error", err.Error())
			restore.End()
			m.restoreSeconds.ObserveSince(restoreStart)
			continue
		}
		m.hits.Add(1)
		restore.End()
		m.restoreSeconds.ObserveSince(restoreStart)
		return g, prog, c.atKernel, true
	}
	endProbe(false)
	return nil, nil, 0, false
}

// Checkpoint implements sweep.Checkpointer.
func (m *Manager) Checkpoint(spec sweep.RunSpec, g *gpu.GPU, atKernel int) {
	var key [32]byte
	if atKernel == 0 {
		key = warmupKey(spec)
	} else {
		key, _ = KernelKey(spec, atKernel) // never fails
	}
	// Deterministic execution means an existing blob under this key is
	// byte-equivalent state; skip the save.
	if m.store.HasBlob(key) {
		return
	}
	saveStart := time.Now()
	defer func() { m.saveSeconds.ObserveSince(saveStart) }()
	buf := m.buffers.Get().(*[]byte)
	defer m.buffers.Put(buf)
	hdr := newHeader(g)
	hdr.Key, hdr.AtKernel = spec.Key, atKernel
	data, err := appendFile((*buf)[:0], hdr, g.AppendState)
	if err != nil {
		m.errors.Add(1)
		return
	}
	*buf = data
	if err := m.store.PutBlob(key, data); err != nil {
		m.errors.Add(1)
		return
	}
	m.saves.Add(1)
	m.bytes.Add(uint64(len(data)))
	if m.onSave != nil {
		// The hook keeps the bytes (replication pushes them from another
		// goroutine); the buffer is about to be reused.
		m.onSave(key, bytes.Clone(data))
	}
}
