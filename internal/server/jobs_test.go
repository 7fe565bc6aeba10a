package server

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/gpu"
	"repro/internal/server/api"
	"repro/internal/simstore"
)

func newTestQueue(t *testing.T, workers int, ttl time.Duration, maxJobs int) *Queue {
	t.Helper()
	store, err := simstore.Open(t.TempDir(), simstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(store, workers, ttl, maxJobs, nil, "")
	t.Cleanup(q.Close)
	return q
}

// TestJobIDsNameOwnerAndSurviveRestart: two queues built for the same
// advertised address — a daemon and its restarted self — carry the same owner
// tag but mint disjoint IDs, so a handle from before the restart can never
// answer (or cancel) a job from after it.
func TestJobIDsNameOwnerAndSurviveRestart(t *testing.T) {
	const addr = "http://127.0.0.1:8404"
	store, err := simstore.Open(t.TempDir(), simstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for life := 0; life < 2; life++ {
		q := NewQueue(store, 1, 0, 0, nil, addr)
		for i := 0; i < 3; i++ {
			j := finishSyntheticRun(q)
			if !strings.HasPrefix(j.ID, "j"+ownerTag(addr)) {
				t.Errorf("job ID %q does not carry its owner's tag %q", j.ID, ownerTag(addr))
			}
			if seen[j.ID] {
				t.Errorf("job ID %q minted twice across a restart", j.ID)
			}
			seen[j.ID] = true
		}
		q.Close()
	}
	if a, b := ownerTag(addr), ownerTag("http://127.0.0.1:8405"); a == b {
		t.Errorf("distinct addresses share the owner tag %s", a)
	}
}

// TestCancelledFigureStopsSimulating: cancelling a figure job cancels the run
// jobs only it is waiting for — the whole figure is submitted up front, and
// none of it may keep simulating for a reader that is gone — while a run it
// shares with an earlier, independent submission survives.
func TestCancelledFigureStopsSimulating(t *testing.T) {
	srv, c := newTestServer(t, 1)
	ctx := context.Background()
	wireOpts := api.FigureOptions{Quick: true, Cycles: 20_000, Warmup: 2_000}
	fig, _ := exp.FigureByKey("3")
	specs := fig.Specs(wireOpts.Options())

	// Somebody else wants the figure's last run; it takes the only worker.
	wire := api.FromRunSpec(specs[len(specs)-1])
	shared, err := c.Runs(ctx, api.RunRequest{Specs: []api.Spec{wire}}, false)
	if err != nil {
		t.Fatal(err)
	}
	sharedID := shared.Results[0].JobID

	// The figure queues every other run behind it; its first run (the shared
	// one) is already running when the cancel lands.
	figID, err := c.FigureAsync(ctx, "3", wireOpts)
	if err != nil {
		t.Fatal(err)
	}
	for srv.queue.Stats().Queued < len(specs)-1 {
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Cancel(ctx, figID); err != nil {
		t.Fatal(err)
	}
	if st, err := c.WaitJob(ctx, figID, 5*time.Millisecond); err != nil || st.Status != api.StatusCancelled {
		t.Fatalf("cancelled figure job = %+v, %v; want cancelled", st, err)
	}
	if st, err := c.WaitJob(ctx, sharedID, 5*time.Millisecond); err != nil || st.Status != api.StatusDone {
		t.Fatalf("run shared with an independent submission = %+v, %v; want it to survive and finish", st, err)
	}
	for qs := srv.queue.Stats(); qs.Queued > 0 || qs.Running > 0; qs = srv.queue.Stats() {
		time.Sleep(time.Millisecond) // let anything wrongly left queued run
	}

	qs := srv.queue.Stats()
	if qs.Executed > 2 {
		t.Errorf("%d simulations executed after the figure was cancelled, want at most 2 of its %d runs", qs.Executed, len(specs))
	}
	srv.queue.mu.Lock()
	defer srv.queue.mu.Unlock()
	cancelled := 0
	for _, j := range srv.queue.jobs {
		if j.Kind == "run" && j.state == api.StatusCancelled {
			cancelled++
		}
	}
	if want := len(specs) - int(qs.Executed); cancelled != want {
		t.Errorf("%d run jobs cancelled, want %d (every run of the figure that had not started)", cancelled, want)
	}
}

// finishSyntheticRun drives one job through the real lifecycle (queued →
// running → done) without simulating, so retention behavior can be soaked
// at memory speed.
func finishSyntheticRun(q *Queue) *Job {
	q.mu.Lock()
	j := q.newJobLocked("run")
	q.mu.Unlock()
	q.begin(j)
	q.finishRun(j, gpu.RunStats{Cycles: 1}, nil)
	return j
}

// TestJobRetentionBoundedUnderSoak is the unit-level soak for the finished-
// job leak: 10k sequential submissions must never grow the job map past the
// retention cap, while in-flight jobs always survive.
func TestJobRetentionBoundedUnderSoak(t *testing.T) {
	const maxJobs = 100
	q := newTestQueue(t, 1, time.Hour, maxJobs)

	// An in-flight job must survive any amount of churn.
	q.mu.Lock()
	inflight := q.newJobLocked("run")
	q.mu.Unlock()
	q.begin(inflight)

	for i := 0; i < 10_000; i++ {
		finishSyntheticRun(q)
		if n := q.Stats().Tracked; n > maxJobs+1 {
			// +1: the cap is enforced on creation, so the map may briefly
			// hold maxJobs plus the job being created.
			t.Fatalf("after %d submissions the job map holds %d jobs, want <= %d", i+1, n, maxJobs+1)
		}
	}
	if n := q.Stats().Tracked; n > maxJobs {
		t.Errorf("job map holds %d jobs after soak, want <= %d", n, maxJobs)
	}
	if got := q.Stats().Evicted; got == 0 {
		t.Error("no jobs were evicted during the soak")
	}

	if _, ok := q.Job(inflight.ID); !ok {
		t.Error("in-flight job was evicted by retention")
	}
	q.finishRun(inflight, gpu.RunStats{}, nil) // let Close drain cleanly
}

// TestJobRetentionTTL: terminal jobs older than the TTL are evicted even
// when the count cap is far away.
func TestJobRetentionTTL(t *testing.T) {
	q := newTestQueue(t, 1, 50*time.Millisecond, 0)
	j := finishSyntheticRun(q)
	if _, ok := q.Job(j.ID); !ok {
		t.Fatal("finished job not queryable")
	}
	q.mu.Lock()
	q.gcLocked(time.Now().Add(100 * time.Millisecond))
	q.mu.Unlock()
	if _, ok := q.Job(j.ID); ok {
		t.Error("terminal job survived past its TTL")
	}
	if got := q.Stats().Evicted; got != 1 {
		t.Errorf("evicted = %d, want 1", got)
	}
	// Eviction forgets the ID only — waiters holding the *Job still read a
	// coherent terminal status.
	if st := q.Wait(context.Background(), j); st.Status != api.StatusDone {
		t.Errorf("evicted job status by pointer = %q, want done", st.Status)
	}
}
