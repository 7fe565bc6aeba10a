package server

import (
	"context"
	"testing"
	"time"

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
	q := NewQueue(store, workers, ttl, maxJobs, nil)
	t.Cleanup(q.Close)
	return q
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
		if n := q.JobCount(); n > maxJobs+1 {
			// +1: the cap is enforced on creation, so the map may briefly
			// hold maxJobs plus the job being created.
			t.Fatalf("after %d submissions the job map holds %d jobs, want <= %d", i+1, n, maxJobs+1)
		}
	}
	if n := q.JobCount(); n > maxJobs {
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
