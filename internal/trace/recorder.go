package trace

import "repro/internal/workload"

// appAssigner mirrors the interface gpu.New uses to detect multi-program
// workloads that pin applications to SMs.
type appAssigner interface {
	AppOf(sm int) int
	Apps() int
}

// Recorder wraps a workload.Program and writes every operation it hands out
// (and every kernel boundary) to a Writer, so any run records transparently:
// wrap the program, pass the Recorder to gpu.New, run, Close.
//
// A write error does not disturb the simulation — the Recorder keeps
// forwarding operations and drops further trace output; the error surfaces
// from Close (and Err) when the run finishes.
type Recorder struct {
	inner workload.Program
	w     *Writer
}

// NewRecorder wraps prog so that its op stream is recorded to w. The
// Recorder takes ownership of w: Close closes it.
func NewRecorder(prog workload.Program, w *Writer) *Recorder {
	return &Recorder{inner: prog, w: w}
}

// NextOp implements workload.Program.
func (r *Recorder) NextOp(sm, warpSlot int) workload.Op {
	op := r.inner.NextOp(sm, warpSlot)
	if r.w.Err() == nil {
		r.w.WriteOp(sm, warpSlot, op)
	}
	return op
}

// NextKernel implements workload.Program.
func (r *Recorder) NextKernel() {
	if r.w.Err() == nil {
		r.w.WriteKernel()
	}
	r.inner.NextKernel()
}

// Kernel implements workload.Program.
func (r *Recorder) Kernel() int { return r.inner.Kernel() }

// AppOf forwards the wrapped program's SM-to-application assignment, so
// wrapping a multi-program workload keeps per-application statistics intact.
func (r *Recorder) AppOf(sm int) int {
	if a, ok := r.inner.(appAssigner); ok {
		return a.AppOf(sm)
	}
	return 0
}

// Apps returns the number of co-executing applications (1 for
// single-program workloads).
func (r *Recorder) Apps() int {
	if a, ok := r.inner.(appAssigner); ok {
		return a.Apps()
	}
	return 1
}

// Close finalizes the trace and reports the first error encountered while
// recording or closing.
func (r *Recorder) Close() error { return r.w.Close() }
