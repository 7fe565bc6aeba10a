package checkpoint_test

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// codecProperties is a sweep.Checkpointer that never resumes and, at every
// boundary a run passes, holds the live GPU to the codec's properties:
//
//   - Encode is a pure function of header and state: a second Save of the
//     same GPU under the same header encodes to the same bytes;
//   - Encode(Decode(b)) == b;
//   - save → encode → decode → restore → save yields an equal State.
type codecProperties struct {
	t          *testing.T
	boundaries int
}

func (p *codecProperties) ResumeSpanned(sweep.RunSpec, func() (workload.Program, error), *obs.Span) (*gpu.GPU, workload.Program, int, bool) {
	return nil, nil, 0, false
}

func (p *codecProperties) Checkpoint(spec sweep.RunSpec, g *gpu.GPU, atKernel int) {
	t := p.t
	p.boundaries++
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("run %q, %s LLC, boundary %d: "+format, append([]any{spec.Key, spec.Config.LLCMode, atKernel}, args...)...)
	}
	encode := func(g *gpu.GPU) (*checkpoint.Snapshot, []byte) {
		snap, err := checkpoint.Save(g)
		if err != nil {
			t.Fatal(err)
		}
		snap.Header.SavedAtUnix, snap.Header.Key, snap.Header.AtKernel = 0, spec.Key, atKernel
		blob, err := checkpoint.Encode(snap)
		if err != nil {
			t.Fatal(err)
		}
		return snap, blob
	}

	snap, blob := encode(g)
	if _, again := encode(g); !bytes.Equal(blob, again) {
		fail("two snapshots of one GPU encode differently")
	}
	decoded, err := checkpoint.Decode(blob)
	if err != nil {
		fail("decode: %v", err)
		return
	}
	if again, err := checkpoint.Encode(decoded); err != nil || !bytes.Equal(blob, again) {
		fail("Encode(Decode(b)) != b (err %v)", err)
	}

	prog, _, err := sweep.BuildProgram(spec)
	if err != nil {
		t.Fatal(err)
	}
	if closer, ok := prog.(io.Closer); ok {
		defer closer.Close()
	}
	restored, err := checkpoint.Restore(spec.Config, prog, decoded)
	if err != nil {
		fail("restore: %v", err)
		return
	}
	resnap, reblob := encode(restored)
	if !reflect.DeepEqual(snap.State, resnap.State) {
		fail("the restored GPU saves a different State")
	}
	if !bytes.Equal(blob, reblob) {
		fail("the restored GPU encodes to different bytes")
	}
}

// modesExecutor runs every spec of a batch under all three LLC organizations
// with the property checker attached, and answers with the statistics of the
// spec's own organization.
type modesExecutor struct{ props *codecProperties }

func (e modesExecutor) Run(_ context.Context, specs []sweep.RunSpec) ([]sweep.Result, error) {
	results := make([]sweep.Result, len(specs))
	for i, spec := range specs {
		results[i] = sweep.Result{Index: i, Key: spec.Key}
		for _, mode := range []config.LLCMode{config.LLCShared, config.LLCPrivate, config.LLCAdaptive} {
			if mode == config.LLCAdaptive && len(spec.AppModes) > 0 {
				continue // per-app views exclude the adaptive controller
			}
			s := spec
			s.Config.LLCMode = mode
			stats, err := sweep.ExecuteSpanned(s, e.props, nil)
			if err != nil {
				return results, err
			}
			if mode == spec.Config.LLCMode {
				results[i].Stats = stats
			}
		}
	}
	return results, nil
}

// TestCodecPropertiesOverCatalog holds the codec to its properties on the
// states the scenario catalog's level 1-3 recipes reach (level 1 under
// -short) — every sharing pattern, multi-program and per-app views, trace
// replay and loop, every NoC topology — at warm-up end and every kernel
// boundary, under all three LLC organizations.
func TestCodecPropertiesOverCatalog(t *testing.T) {
	level := scenario.Level3
	if testing.Short() {
		level = scenario.Level1
	}
	for _, sc := range scenario.UpToLevel(level) {
		t.Run(sc.Name, func(t *testing.T) {
			props := &codecProperties{t: t}
			if _, err := sc.Run(context.Background(), scenario.RunOptions{Exec: modesExecutor{props}}); err != nil {
				t.Fatal(err)
			}
			if props.boundaries == 0 {
				t.Fatal("no run of the scenario passed a checkpoint boundary")
			}
		})
	}
}
