package server

import (
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/server/api"
	"repro/internal/simstore"
)

func newTestQueue(t *testing.T, workers int, maxJobs int) *Queue {
	t.Helper()
	store, err := simstore.Open(t.TempDir(), simstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(store, workers, maxJobs, nil, "")
	t.Cleanup(q.Close)
	return q
}

// TestJobIDsNameOwnerAndSurviveRestart: two queues built for the same
// advertised address — a daemon and its restarted self — carry the same owner
// tag but mint disjoint IDs, so a handle from before the restart can never
// answer for a job from after it.
func TestJobIDsNameOwnerAndSurviveRestart(t *testing.T) {
	const addr = "http://127.0.0.1:8404"
	store, err := simstore.Open(t.TempDir(), simstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for life := 0; life < 2; life++ {
		q := NewQueue(store, 1, 0, nil, addr)
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

// finishSyntheticRun drives one job through the real lifecycle (queued →
// running → done) without simulating, so retention behavior can be soaked
// at memory speed.
func finishSyntheticRun(q *Queue) *Job {
	q.mu.Lock()
	j := q.newJobLocked()
	q.mu.Unlock()
	q.begin(j)
	q.finishRun(j, gpu.RunStats{Cycles: 1}, nil)
	return j
}

// TestJobRetentionBoundedUnderSoak is the unit-level soak for the finished-
// job leak: over 10k sequential runs at most maxJobs finished jobs are ever
// retained, the evicted ones are exactly the oldest-finished, in finishing
// order, and an in-flight job survives all of it.
func TestJobRetentionBoundedUnderSoak(t *testing.T) {
	const maxJobs, runs = 100, 10_000
	q := newTestQueue(t, 1, maxJobs)

	// An in-flight job must survive any amount of churn.
	q.mu.Lock()
	inflight := q.newJobLocked()
	q.mu.Unlock()
	q.begin(inflight)

	retainedFinished := func() int {
		q.mu.Lock()
		defer q.mu.Unlock()
		n := 0
		for _, j := range q.jobs {
			if api.IsTerminal(j.state) {
				n++
			}
		}
		return n
	}
	var finished []string // every job finished, in finishing order
	for i := 0; i < runs; i++ {
		finished = append(finished, finishSyntheticRun(q).ID)
		if n := retainedFinished(); n != min(i+1, maxJobs) {
			t.Fatalf("after %d runs %d finished jobs are retained, want %d", i+1, n, min(i+1, maxJobs))
		}
		if i < maxJobs {
			continue
		}
		// Each finish past the cap evicts the oldest-finished job, and only it.
		if _, ok := q.Job(finished[i-maxJobs]); ok {
			t.Fatalf("after %d runs the job that finished %d-th is still retained", i+1, i-maxJobs+1)
		}
		if _, ok := q.Job(finished[i-maxJobs+1]); !ok {
			t.Fatalf("after %d runs the job that finished %d-th was evicted before its turn", i+1, i-maxJobs+2)
		}
	}
	if got, want := q.Stats().Evicted, uint64(runs-maxJobs); got != want {
		t.Errorf("evicted %d jobs, want %d", got, want)
	}
	for _, id := range finished[runs-maxJobs:] {
		if _, ok := q.Job(id); !ok {
			t.Errorf("job %s, among the %d newest finished, was evicted", id, maxJobs)
		}
	}
	if _, ok := q.Job(inflight.ID); !ok {
		t.Error("in-flight job was evicted by retention")
	}
	if n := q.Stats().Tracked; n != maxJobs+1 {
		t.Errorf("tracking %d jobs, want the %d newest finished and the in-flight one", n, maxJobs)
	}
	q.finishRun(inflight, gpu.RunStats{}, nil) // let Close drain cleanly
}
