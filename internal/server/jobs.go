package server

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
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

	// Lifecycle trace, served by GET /v1/jobs/{id}/timeline. created is the
	// submission instant (the queue-wait histogram's origin); spQueue is the
	// open queue-wait span begin() ends.
	created time.Time
	trace   *obs.Trace
	spQueue *obs.Span
}

// QueueStats are the queue's observability counters (served by /metrics).
type QueueStats struct {
	Workers   int
	Queued    int
	Running   int
	Tracked   int    // jobs currently retained in memory (any state)
	Executed  uint64 // simulations actually run
	Completed uint64
	Failed    uint64
	DedupHits uint64 // submissions attached to an already-in-flight job
	Evicted   uint64 // finished jobs dropped by the retention cap
}

// Queue owns the jobs: a bounded worker pool executes run jobs, the store
// absorbs their results, and an in-flight index deduplicates submissions so
// two clients posting the same spec share one execution. A job's life is
// queued → running → done | failed: any job may be some other submitter's
// too, so every admitted run finishes into the store.
type Queue struct {
	store   *simstore.Store
	cp      sweep.Checkpointer // nil = cold execution only
	workers int
	maxJobs int    // cap on retained finished jobs (0 = unbounded)
	idBase  string // job-ID prefix: cluster-unique, names this daemon (jobIDBase)

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*Job
	inflight map[string]*Job // fingerprint hex -> queued/running run job
	finished []string        // retained finished job IDs, oldest first (maxJobs > 0 only)
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
// without asking around (Server.jobOwner):
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
// GOMAXPROCS) and finished-job cap: a finished job stays pollable until
// maxJobs newer jobs have finished (0 keeps every job). In-flight jobs
// neither count toward the cap nor are evicted. A non-nil cp makes every
// executed run checkpoint-assisted (resumed from stored state prefixes where
// possible; statistics are unaffected). self is the daemon's advertised
// address ("" if it has none), which the job IDs carry.
func NewQueue(store *simstore.Store, workers int, maxJobs int, cp sweep.Checkpointer, self string) *Queue {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	q := &Queue{
		store:    store,
		cp:       cp,
		workers:  workers,
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

func (q *Queue) newJobLocked() *Job {
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
		return Submitted{Fingerprint: hexFP, Job: j}, nil
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
			q.begin(j)
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

// begin moves a queued job to running.
func (q *Queue) begin(j *Job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j.state = api.StatusRunning
	j.started = time.Now()
	j.spQueue.End()
	q.queueWait.Observe(time.Since(j.created).Seconds())
	q.stats.Running++
}

// finishRun settles a running job and retains it under the cap: past
// maxJobs finished jobs, the oldest-finished one is evicted.
func (q *Queue) finishRun(j *Job, stats gpu.RunStats, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.stats.Running--
	q.stats.Executed++
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
	if q.maxJobs > 0 {
		q.finished = append(q.finished, j.ID)
		if len(q.finished) > q.maxJobs {
			delete(q.jobs, q.finished[0])
			q.finished = q.finished[1:]
			q.stats.Evicted++
		}
	}
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
