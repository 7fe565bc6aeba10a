package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/workload"
)

// Counts summarizes a trace's events.
type Counts struct {
	Ops     uint64 // all operations
	MemOps  uint64 // loads + stores
	Loads   uint64
	Stores  uint64
	Kernels uint64 // kernel-boundary markers
}

// Writer streams a trace to an underlying writer. It is not safe for
// concurrent use (neither is the simulator driving it).
type Writer struct {
	hdr    Header
	closer io.Closer // underlying file when opened via Create, else nil
	gz     *gzip.Writer
	bw     *bufio.Writer

	lastAddr []uint64 // per recorded warp stream, for delta encoding
	scratch  [2*binary.MaxVarintLen64 + 1]byte
	err      error
	closed   bool
}

// NewWriter starts a trace on w. The header is written immediately.
func NewWriter(w io.Writer, hdr Header) (*Writer, error) {
	if err := hdr.Validate(); err != nil {
		return nil, err
	}
	if _, err := w.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing magic: %w", err)
	}
	gz := gzip.NewWriter(w)
	bw := bufio.NewWriter(gz)
	hdrJSON, err := json.Marshal(hdr)
	if err != nil {
		return nil, fmt.Errorf("trace: encoding header: %w", err)
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(hdrJSON)))
	if _, err := bw.Write(lenBuf[:n]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	if _, err := bw.Write(hdrJSON); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{
		hdr:      hdr,
		gz:       gz,
		bw:       bw,
		lastAddr: make([]uint64, hdr.TotalWarps()),
	}, nil
}

// Create opens (truncating) a trace file at path and starts a trace in it.
func Create(path string, hdr Header) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	w, err := NewWriter(f, hdr)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	w.closer = f
	return w, nil
}

// Err returns the first error encountered while writing, if any. Once set,
// all further writes are dropped.
func (w *Writer) Err() error { return w.err }

// WriteOp records one operation issued to warp `warpSlot` of SM `sm`.
func (w *Writer) WriteOp(sm, warpSlot int, op workload.Op) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return w.fail(fmt.Errorf("trace: write after Close"))
	}
	if sm < 0 || sm >= w.hdr.NumSMs || warpSlot < 0 || warpSlot >= w.hdr.MaxWarpsPerSM {
		return w.fail(fmt.Errorf("trace: op for warp (%d,%d) outside recorded geometry %dx%d",
			sm, warpSlot, w.hdr.NumSMs, w.hdr.MaxWarpsPerSM))
	}
	gw := sm*w.hdr.MaxWarpsPerSM + warpSlot

	buf := w.scratch[:0]
	switch {
	case !op.IsMem:
		buf = append(buf, evALU)
		buf = binary.AppendUvarint(buf, uint64(gw))
		buf = binary.AppendUvarint(buf, uint64(max(op.ALULatency, 0)))
	case op.Write:
		buf = append(buf, evWrite)
		buf = binary.AppendUvarint(buf, uint64(gw))
		buf = binary.AppendUvarint(buf, zigzag(int64(op.Addr-w.lastAddr[gw])))
		w.lastAddr[gw] = op.Addr
	default:
		buf = append(buf, evRead)
		buf = binary.AppendUvarint(buf, uint64(gw))
		buf = binary.AppendUvarint(buf, zigzag(int64(op.Addr-w.lastAddr[gw])))
		w.lastAddr[gw] = op.Addr
	}
	if _, err := w.bw.Write(buf); err != nil {
		return w.fail(fmt.Errorf("trace: writing op: %w", err))
	}
	return nil
}

// WriteKernel records a kernel boundary.
func (w *Writer) WriteKernel() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return w.fail(fmt.Errorf("trace: write after Close"))
	}
	if err := w.bw.WriteByte(evKernel); err != nil {
		return w.fail(fmt.Errorf("trace: writing kernel marker: %w", err))
	}
	return nil
}

// Close writes the end-of-trace marker, flushes the compressed stream and
// closes the underlying file if the Writer owns one. Close after an earlier
// write error still releases resources but reports that first error.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err == nil {
		if err := w.bw.WriteByte(evEnd); err != nil {
			w.fail(fmt.Errorf("trace: writing end marker: %w", err))
		}
	}
	if err := w.bw.Flush(); err != nil && w.err == nil {
		w.fail(fmt.Errorf("trace: flushing: %w", err))
	}
	if err := w.gz.Close(); err != nil && w.err == nil {
		w.fail(fmt.Errorf("trace: closing gzip stream: %w", err))
	}
	if w.closer != nil {
		if err := w.closer.Close(); err != nil && w.err == nil {
			w.fail(fmt.Errorf("trace: closing file: %w", err))
		}
	}
	return w.err
}

func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return w.err
}
