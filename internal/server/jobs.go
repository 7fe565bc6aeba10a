package server

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/server/api"
	"repro/internal/simstore"
	"repro/internal/sweep"
)

// Job is one asynchronous simulation run, bounded by the worker pool. All
// mutable fields are guarded by the owning Queue's mutex.
type Job struct {
	ID  string
	Key string

	fp   [32]byte
	spec sweep.RunSpec

	state      string
	stats      gpu.RunStats
	errMsg     string
	started    time.Time
	durationMs int64

	// finished is set on entry to a terminal state; retention GC evicts
	// terminal jobs by age.
	finished time.Time

	// Lifecycle trace, served by GET /v1/jobs/{id}/timeline. created is the
	// submission instant (the queue-wait histogram's origin); spQueue is the
	// open queue-wait span begin() ends.
	created time.Time
	trace   *obs.Trace
	spQueue *obs.Span
}

func terminal(state string) bool { return api.IsTerminal(state) }

// QueueStats are the queue's observability counters (served by /metrics).
type QueueStats struct {
	Workers   int
	Queued    int
	Running   int
	Tracked   int    // jobs currently retained in memory (any state)
	Executed  uint64 // simulations actually run
	Completed uint64
	Failed    uint64
	Cancelled uint64
	DedupHits uint64 // submissions attached to an already-in-flight job
	Evicted   uint64 // finished jobs dropped by the retention policy
}

// Queue owns the jobs: a bounded worker pool executes run jobs, the store
// absorbs their results, and an in-flight index deduplicates submissions so
// two clients posting the same spec share one execution.
type Queue struct {
	store   *simstore.Store
	cp      sweep.Checkpointer // nil = cold execution only
	workers int
	ttl     time.Duration // evict terminal jobs older than this (0 = keep)
	maxJobs int           // hard cap on retained jobs (0 = unbounded)
	idBase  string        // job-ID prefix: cluster-unique, names this daemon (jobIDBase)

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*Job
	inflight map[string]*Job // fingerprint hex -> queued/running run job
	seq      uint64
	stats    QueueStats

	pending chan *Job
	quit    chan struct{}
	wg      sync.WaitGroup

	// Timing instruments, registered via Instrument; nil (no-op) otherwise.
	queueWait   *obs.Histogram
	runDuration *obs.Histogram
	storeWrite  *obs.Histogram

	// onStored, if set via OnStored, fires after every successful result
	// store write (the cluster replication hook) with the statistics as
	// the store encoded them. The spec passed is the job's canonical spec.
	onStored func(fp [32]byte, key string, spec sweep.RunSpec, stats simstore.EncodedStats)
}

// OnStored registers a post-store-write hook. Set before traffic arrives;
// not safe to change concurrently with running workers.
func (q *Queue) OnStored(fn func(fp [32]byte, key string, spec sweep.RunSpec, stats simstore.EncodedStats)) {
	q.onStored = fn
}

// Instrument wires the queue's timing histograms: how long run jobs wait
// for a worker, how long executions take, and how long result-store writes
// take. All three are nil-safe, so an uninstrumented queue records nothing.
func (q *Queue) Instrument(queueWait, runDuration, storeWrite *obs.Histogram) {
	q.queueWait = queueWait
	q.runDuration = runDuration
	q.storeWrite = storeWrite
}

// ownerTag is the part of a job ID that names the daemon that minted it:
// eight hex digits of its advertised address's hash.
func ownerTag(addr string) string {
	sum := sha256.Sum256([]byte(addr))
	return hex.EncodeToString(sum[:4])
}

// jobIDBase mints a queue's job-ID prefix. Job IDs must be unique across a
// cluster, not just within one daemon — forwarded submissions hand their
// owner's IDs to clients, who may poll any member — and they name their
// owner, so a member that does not hold a job finds the one that does
// without asking around (Server.jobOwners):
//
//	j <ownerTag(self)> <nonce> - <sequence>
//
// The nonce (eight hex digits, random per process) keeps a restarted
// daemon's IDs apart from the ones it handed out before. A daemon with no
// advertised address has nobody to be found by and gets a random tag alone.
func jobIDBase(self string) string {
	nonce := make([]byte, 4)
	rand.Read(nonce)
	if self == "" {
		return "j" + hex.EncodeToString(nonce)
	}
	return "j" + ownerTag(self) + hex.EncodeToString(nonce)
}

// NewQueue starts a queue with the given simulation worker count (0 uses
// GOMAXPROCS) and finished-job retention policy: terminal jobs are evicted
// once older than ttl, and whenever the job map exceeds maxJobs
// (oldest-finished first). Zero disables the respective bound; in-flight
// jobs are never evicted. A non-nil cp makes every executed run
// checkpoint-assisted (resumed from stored state prefixes where possible;
// statistics are unaffected). self is the daemon's advertised address ("" if
// it has none), which the job IDs carry.
func NewQueue(store *simstore.Store, workers int, ttl time.Duration, maxJobs int, cp sweep.Checkpointer, self string) *Queue {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	q := &Queue{
		store:    store,
		cp:       cp,
		workers:  workers,
		ttl:      ttl,
		maxJobs:  maxJobs,
		idBase:   jobIDBase(self),
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
		pending:  make(chan *Job, 4096),
		quit:     make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	if ttl > 0 {
		// The cap is enforced inline on job creation; the ticker exists for
		// the TTL, which must fire even on an idle daemon.
		interval := ttl / 4
		if interval < time.Second {
			interval = time.Second
		}
		if interval > time.Minute {
			interval = time.Minute
		}
		q.wg.Add(1)
		go q.gcLoop(interval)
	}
	return q
}

// Close stops the workers after their current runs finish. Queued jobs stay
// queued (a restarted daemon re-resolves them from the store or re-runs).
// Close is idempotent.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	q.mu.Unlock()
	close(q.quit)
	q.wg.Wait()
}

func (q *Queue) gcLoop(interval time.Duration) {
	defer q.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-q.quit:
			return
		case <-t.C:
			q.mu.Lock()
			q.gcLocked(time.Now())
			q.mu.Unlock()
		}
	}
}

// gcLocked evicts finished jobs per the retention policy. Only terminal
// jobs are candidates: in-flight jobs always survive. Callers hold q.mu.
func (q *Queue) gcLocked(now time.Time) {
	var victims []*Job
	for _, j := range q.jobs {
		if terminal(j.state) {
			victims = append(victims, j)
		}
	}
	evict := func(j *Job) {
		delete(q.jobs, j.ID)
		q.stats.Evicted++
	}
	if q.ttl > 0 {
		kept := victims[:0]
		for _, j := range victims {
			if now.Sub(j.finished) > q.ttl {
				evict(j)
			} else {
				kept = append(kept, j)
			}
		}
		victims = kept
	}
	if q.maxJobs > 0 && len(q.jobs) > q.maxJobs {
		sort.Slice(victims, func(i, k int) bool {
			return victims[i].finished.Before(victims[k].finished)
		})
		for _, j := range victims {
			if len(q.jobs) <= q.maxJobs {
				break
			}
			evict(j)
		}
	}
}

func (q *Queue) newJobLocked() *Job {
	// finishRun keeps the map at the cap in the steady state,
	// so this fires only when terminal jobs accumulated without a finish
	// (queued-job cancellations) — not on every submission.
	if q.maxJobs > 0 && len(q.jobs) > q.maxJobs {
		q.gcLocked(time.Now())
	}
	q.seq++
	j := &Job{
		ID:    fmt.Sprintf("%s-%06d", q.idBase, q.seq),
		state: api.StatusQueued,
	}
	q.jobs[j.ID] = j
	return j
}

// Submitted is the outcome of SubmitRun: either a store hit with the
// statistics in hand, as the store holds them, or the job (new or shared)
// executing the miss.
type Submitted struct {
	Fingerprint string
	Cached      bool
	Stats       simstore.EncodedStats
	Job         *Job
	// Shared marks a dedup hit: Job was created by an earlier submission,
	// so this submitter must not cancel it on its own account.
	Shared bool
}

// SubmitRun routes one run through the cache: a store hit returns
// immediately, a miss is enqueued, and a spec already queued or running —
// no matter who submitted it — is shared rather than re-enqueued. fp is the
// spec's simstore.Fingerprint, computed once by the caller.
func (q *Queue) SubmitRun(key string, spec sweep.RunSpec, fp [32]byte) (Submitted, error) {
	hexFP := simstore.Hex(fp)
	if rec, ok := q.store.Get(fp); ok {
		return Submitted{Fingerprint: hexFP, Cached: true, Stats: rec.Stats}, nil
	}

	q.mu.Lock()
	if j, ok := q.inflight[hexFP]; ok {
		q.stats.DedupHits++
		q.mu.Unlock()
		return Submitted{Fingerprint: hexFP, Job: j, Shared: true}, nil
	}
	// The unlocked store miss above races with a concurrent worker finishing
	// this very spec (Put + inflight delete); re-check the store before
	// committing to a brand-new simulation of an already-cached run. This
	// extra read only happens on the about-to-enqueue path.
	if rec, ok := q.store.Get(fp); ok {
		q.mu.Unlock()
		return Submitted{Fingerprint: hexFP, Cached: true, Stats: rec.Stats}, nil
	}
	j := q.newJobLocked()
	j.Key = key
	j.fp = fp
	j.created = time.Now()
	j.trace = obs.NewTrace()
	j.spQueue = j.trace.Start("queue-wait")
	j.spec = spec.Canonical()
	j.spec.Key = j.ID // names the run in engine error messages
	q.inflight[hexFP] = j
	q.mu.Unlock()

	select {
	case q.pending <- j:
	default:
		q.mu.Lock()
		delete(q.inflight, hexFP)
		delete(q.jobs, j.ID)
		q.mu.Unlock()
		return Submitted{}, fmt.Errorf("job queue full (%d pending)", cap(q.pending))
	}
	return Submitted{Fingerprint: hexFP, Job: j}, nil
}

// executeSafely converts a panicking run into a failed job, so one bad
// request cannot take the daemon down. sp, when non-nil, receives the execution's lifecycle spans (checkpoint probe,
// warmup, kernel segments, measure window).
func executeSafely(spec sweep.RunSpec, cp sweep.Checkpointer, sp *obs.Span) (stats gpu.RunStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("run panicked: %v", r)
		}
	}()
	return sweep.ExecuteSpanned(spec, cp, sp)
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		select {
		case <-q.quit:
			return
		case j := <-q.pending:
			if !q.begin(j) {
				continue // cancelled while queued
			}
			runSp := j.trace.Start("run")
			stats, err := executeSafely(j.spec, q.cp, runSp)
			runSp.End()
			if err == nil {
				// A store write failure degrades caching, not correctness:
				// the computed statistics are still returned.
				putSp := j.trace.Start("store-write")
				putStart := time.Now()
				// A local write error still replicates: the copies on the
				// replicas are what keeps the result cached.
				enc, encErr := simstore.EncodeStats(stats)
				if encErr == nil {
					q.store.PutEncoded(j.fp, j.Key, j.spec, enc)
				}
				q.storeWrite.ObserveSince(putStart)
				putSp.End()
				if encErr == nil && q.onStored != nil {
					q.onStored(j.fp, j.Key, j.spec, enc)
				}
			}
			q.finishRun(j, stats, err)
		}
	}
}

// begin moves a queued job to running; false means it was cancelled.
func (q *Queue) begin(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j.state != api.StatusQueued {
		return false
	}
	j.state = api.StatusRunning
	j.started = time.Now()
	j.spQueue.End()
	q.queueWait.Observe(time.Since(j.created).Seconds())
	q.stats.Running++
	return true
}

func (q *Queue) finishRun(j *Job, stats gpu.RunStats, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.stats.Running--
	q.stats.Executed++
	j.finished = time.Now()
	j.durationMs = time.Since(j.started).Milliseconds()
	q.runDuration.Observe(time.Since(j.started).Seconds())
	if err != nil {
		j.state = api.StatusFailed
		j.errMsg = err.Error()
		q.stats.Failed++
	} else {
		j.state = api.StatusDone
		j.stats = stats
		q.stats.Completed++
	}
	delete(q.inflight, simstore.Hex(j.fp))
	if q.maxJobs > 0 && len(q.jobs) > q.maxJobs {
		q.gcLocked(time.Now())
	}
}

// Cancel requests cancellation of a job. A queued job is terminated
// immediately (note: a job shared by deduplicated submissions is cancelled
// for all of them); a running job cannot be preempted (the simulator has no
// internal preemption points) and reports its current state.
func (q *Queue) Cancel(id string) (api.JobStatus, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return api.JobStatus{}, false
	}
	if j.state == api.StatusQueued {
		j.state = api.StatusCancelled
		j.finished = time.Now()
		q.stats.Cancelled++
		delete(q.inflight, simstore.Hex(j.fp))
	}
	return q.statusLocked(j), true
}

// Timeline returns the span tree a job's trace recorded so far, with the
// job's identifying fields. Open spans report Open=true and a duration up
// to now, so in-flight jobs have useful timelines too.
func (q *Queue) Timeline(id string) (api.JobTimeline, bool) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return api.JobTimeline{}, false
	}
	tl := api.JobTimeline{ID: j.ID, Status: j.state, Key: j.Key}
	tr := j.trace
	q.mu.Unlock()
	// Snapshot outside the queue lock: it takes the trace's own lock and
	// walks every span, and the trace pointer is immutable after creation.
	tl.Spans = tr.Snapshot()
	return tl, true
}

// Job returns a job's status snapshot.
func (q *Queue) Job(id string) (api.JobStatus, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return api.JobStatus{}, false
	}
	return q.statusLocked(j), true
}

func (q *Queue) statusLocked(j *Job) api.JobStatus {
	st := api.JobStatus{
		ID:          j.ID,
		Status:      j.state,
		Key:         j.Key,
		Fingerprint: simstore.Hex(j.fp),
		Error:       j.errMsg,
		DurationMs:  j.durationMs,
	}
	if j.state == api.StatusDone {
		stats := j.stats
		st.Stats = &stats
	}
	return st
}

// Stats returns a snapshot of the queue counters.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := q.stats
	st.Workers = q.workers
	st.Queued = len(q.pending)
	st.Tracked = len(q.jobs)
	return st
}
