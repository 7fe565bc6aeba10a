package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/server/api"
	"repro/internal/server/client"
	"repro/internal/simstore"
	"repro/internal/sweep"
)

// The cluster read path, written once. Reads never trust ownership alone:
// a spec is answered from the local store (the owner's copy or a warm
// replica), else by a record probe across its top Replicas+1 ranked members
// (one rank of headroom so a single membership shift between write and
// read still finds the warm copy; a record found off-owner is read-repaired
// onto the current top-K, so churn-displaced records migrate lazily, on the
// read path, instead of via a rebalancing scan), else by a handle-based
// forward walk down the ranking — and what is left when the walk reaches
// this daemon (or exhausts the ranking) executes here. POST /v1/runs
// resolves its whole batch at once; figure routing resolves a batch of one.
// Everything is best-effort: a lost replica or an unreachable owner costs a
// byte-identical re-execution, never wrongness.

// routedSpec is one spec's state on the read path.
type routedSpec struct {
	wire api.Spec // what a forward sends; its Key names the spec in answers
	spec sweep.RunSpec
	fp   [32]byte
	// haveFP is false single-node and when fingerprinting failed; such a
	// spec is never routed (the local submit reports the error properly).
	haveFP bool

	ranked []string // rendezvous order over the members, computed at most once
	next   int      // forward-walk position in ranked; -1 once the walk ended

	// res is the answer once handled: a store or replica hit, or a member's
	// reply to a forward. remote names that member while the reply is an
	// open job handle (res.JobID lives there).
	res     api.RunResult
	handled bool
	remote  string
}

// newRouted fingerprints a validated spec for routing (cluster mode only:
// single-node submission fingerprints on its own).
func (s *Server) newRouted(wire api.Spec, spec sweep.RunSpec) routedSpec {
	it := routedSpec{wire: wire, spec: spec}
	if s.node != nil {
		fp, err := simstore.Fingerprint(spec)
		it.fp, it.haveFP = fp, err == nil
	}
	return it
}

// answer records a store hit served by peer.
func (it *routedSpec) answer(stats gpu.RunStats, peer string) {
	it.res = api.RunResult{
		Key: it.wire.Key, Fingerprint: simstore.Hex(it.fp),
		Cached: true, Status: api.StatusDone, Stats: &stats, Peer: peer,
	}
	it.handled = true
}

// resolver walks one batch down the read path against one membership
// snapshot.
type resolver struct {
	s       *Server
	members []string
	self    string
	batch   []routedSpec
}

// resolve runs the read path over batch (cluster mode only). Specs it leaves
// unhandled are the caller's to execute locally. The only error is ctx's.
func (s *Server) resolve(ctx context.Context, batch []routedSpec) error {
	rv := resolver{s: s, members: s.node.Members(), self: s.node.Self(), batch: batch}
	rv.localStore()
	rv.probe(ctx)
	return rv.forward(ctx)
}

// rank orders the members for one spec, once per resolution.
func (rv *resolver) rank(it *routedSpec) []string {
	if it.ranked == nil {
		it.ranked = cluster.Ranked(it.fp, rv.members)
	}
	return it.ranked
}

// localStore answers what this daemon's store holds without touching the
// network. A hit on a non-owner is a replica hit.
func (rv *resolver) localStore() {
	for i := range rv.batch {
		it := &rv.batch[i]
		if !it.haveFP {
			continue
		}
		rec, ok := rv.s.store.Get(it.fp)
		if !ok {
			continue
		}
		it.answer(rec.Stats, rv.self)
		if len(rv.members) > 1 && rv.rank(it)[0] != rv.self {
			atomic.AddUint64(&rv.s.replicaHits, 1)
		}
	}
}

// probe batch-probes the ranked members' stores for every still-unanswered
// spec before anything is forwarded to execute: after membership churn the
// current owner may not hold a record a demoted replica still has. One
// lookup per member per batch; the lowest-ranked holder wins, and a hit
// below rank 0 is a replica hit that triggers an async read repair. No-op
// unless replication is on.
func (rv *resolver) probe(ctx context.Context) {
	s := rv.s
	if s.replicas <= 1 || len(rv.members) <= 1 {
		return
	}
	width := min(s.replicas+1, len(rv.members))
	type target struct{ idx, pos int }
	targets := map[string][]target{}
	for i := range rv.batch {
		it := &rv.batch[i]
		if it.handled || !it.haveFP {
			continue
		}
		for pos, p := range rv.rank(it)[:width] {
			if p != rv.self {
				targets[p] = append(targets[p], target{i, pos})
			}
		}
	}
	if len(targets) == 0 {
		return
	}

	type hit struct {
		pos  int
		peer string
		rec  api.StoredRecord
	}
	var mu sync.Mutex
	best := map[int]hit{}
	var wg sync.WaitGroup
	for peer, ts := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hexes := make([]string, len(ts))
			for k, t := range ts {
				hexes[k] = simstore.Hex(rv.batch[t.idx].fp)
			}
			pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			resp, err := s.peerClient(peer).LookupRecords(pctx, api.LookupRequest{Fingerprints: hexes})
			if err != nil {
				return // probe misses are free; the forward walk covers it
			}
			found := make(map[string]api.StoredRecord, len(resp.Records))
			for _, rec := range resp.Records {
				found[rec.Fingerprint] = rec
			}
			mu.Lock()
			defer mu.Unlock()
			for k, t := range ts {
				rec, ok := found[hexes[k]]
				if !ok {
					continue
				}
				if b, dup := best[t.idx]; !dup || t.pos < b.pos {
					best[t.idx] = hit{t.pos, peer, rec}
				}
			}
		}()
	}
	wg.Wait()

	for i, h := range best {
		it := &rv.batch[i]
		it.answer(h.rec.Stats, h.peer)
		if h.pos > 0 {
			atomic.AddUint64(&s.replicaHits, 1)
			go s.readRepair(it.fp, h.rec, h.peer, s.topK(it.ranked))
		}
	}
}

// forward offers each still-unanswered spec to its ranked members in order,
// submitting so a hop costs one round-trip and yields a job handle, never a
// pinned connection. Reaching self (or exhausting the ranking) ends a
// spec's walk unhandled.
func (rv *resolver) forward(ctx context.Context) error {
	for {
		groups := map[string][]int{}
		for i := range rv.batch {
			it := &rv.batch[i]
			if it.handled || !it.haveFP || it.next < 0 {
				continue
			}
			ranked := rv.rank(it)
			if it.next >= len(ranked) || ranked[it.next] == rv.self {
				it.next = -1
				continue
			}
			groups[ranked[it.next]] = append(groups[ranked[it.next]], i)
		}
		if len(groups) == 0 {
			return nil
		}
		// Candidate groups hold disjoint spec indices, and each goroutine
		// writes only its own specs' slots; forward them concurrently.
		var wg sync.WaitGroup
		for cand, idxs := range groups {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rv.forwardGroup(ctx, cand, idxs)
			}()
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return err
		}
	}
}

// forwardGroup submits one candidate's specs to it in one request. Failure
// advances each spec's walk; success records the member's per-spec reply.
func (rv *resolver) forwardGroup(ctx context.Context, cand string, idxs []int) {
	s := rv.s
	sub := api.RunRequest{Specs: make([]api.Spec, len(idxs))}
	for k, i := range idxs {
		sub.Specs[k] = rv.batch[i].wire
	}
	start := time.Now()
	resp, err := s.peerClient(cand).ForwardRuns(ctx, sub)
	if err != nil || len(resp.Results) != len(idxs) {
		if ctx.Err() != nil {
			return // the caller hung up; forward reports it
		}
		reason := failoverUnreachable
		if err == nil || client.IsStatusError(err) {
			reason = failoverBadAnswer
		}
		s.failover(reason, len(idxs))
		for _, i := range idxs {
			rv.batch[i].next++
		}
		return
	}
	atomic.AddUint64(&s.forwarded, uint64(len(idxs)))
	s.metrics.forward.With(cand).Observe(time.Since(start).Seconds())
	for k, i := range idxs {
		it := &rv.batch[i]
		it.res = resp.Results[k]
		if it.res.Peer == "" {
			it.res.Peer = cand
		}
		it.handled = true
		if !api.IsTerminal(it.res.Status) && it.res.JobID != "" {
			it.remote = cand
		}
	}
}

// topK cuts a ranking down to the replica set: its first Config.Replicas
// members.
func (s *Server) topK(ranked []string) []string {
	return ranked[:min(s.replicas, len(ranked))]
}

// failover counts ranked-walk fallbacks, by cause.
func (s *Server) failover(reason string, n int) {
	s.metrics.failoverReasons.With(reason).Add(uint64(n))
}

// waitRemoteJob polls a forwarded job handle on its member until it turns
// terminal. Each poll is an independent, timeout-bounded round-trip.
func (s *Server) waitRemoteJob(ctx context.Context, peer, id string) (*api.JobStatus, error) {
	cl := s.peerClient(peer)
	t := time.NewTicker(s.remotePoll)
	defer t.Stop()
	for {
		pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		st, err := cl.ForwardJob(pctx, id)
		cancel()
		atomic.AddUint64(&s.remotePolls, 1)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, err
		}
		if api.IsTerminal(st.Status) {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
	}
}

// routeRun is the RouteFunc wired into figure jobs: it resolves each of a
// figure's runs as a batch of one, so figure generation caches every run on
// its hash-designated daemon, then polls the handle a forward returned.
// handled=false falls through to local execution — this daemon owns the
// spec, there is no cluster, fingerprinting failed, or every remote
// candidate failed over.
func (s *Server) routeRun(ctx context.Context, key string, spec sweep.RunSpec) (gpu.RunStats, bool, bool, error) {
	if s.node == nil {
		return gpu.RunStats{}, false, false, nil
	}
	wire := api.FromRunSpec(spec)
	wire.Key = key
	batch := []routedSpec{s.newRouted(wire, spec)}
	if err := s.resolve(ctx, batch); err != nil {
		return gpu.RunStats{}, false, true, err
	}
	it := &batch[0]
	if !it.handled {
		return gpu.RunStats{}, false, false, nil
	}
	r := it.res
	if it.remote != "" {
		st, err := s.waitRemoteJob(ctx, it.remote, r.JobID)
		if err != nil {
			if ctx.Err() != nil {
				return gpu.RunStats{}, false, true, ctx.Err()
			}
			// The member vanished mid-run: re-execute locally —
			// determinism makes the duplicate byte-identical.
			s.failover(failoverUnreachable, 1)
			return gpu.RunStats{}, false, false, nil
		}
		r.Status, r.Stats, r.Error = st.Status, st.Stats, st.Error
	}
	switch {
	case r.Status == api.StatusDone && r.Stats != nil:
		return *r.Stats, r.Cached, true, nil
	case r.Status == api.StatusFailed:
		// The member ran the spec and it genuinely failed (deterministic —
		// re-executing here would fail identically); report, don't retry.
		msg := r.Error
		if msg == "" {
			msg = fmt.Sprintf("member %s answered status failed", r.Peer)
		}
		return gpu.RunStats{}, false, true, fmt.Errorf("%s", msg)
	default:
		// Cancelled (someone cancelled the member's shared job) or any
		// other non-answer: not a property of the spec, so fall back
		// rather than failing the figure.
		s.failover(failoverCancelled, 1)
		return gpu.RunStats{}, false, false, nil
	}
}
