package server

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/server/api"
	"repro/internal/server/client"
	"repro/internal/simstore"
	"repro/internal/sweep"
)

// The cluster read path, written once. Reads never trust ownership alone:
// a spec is answered from the local store (the owner's copy or a warm
// replica), else by a record probe of its top Replicas+1 ranked members,
// owners first and each member at most once (one rank of headroom so a single
// membership shift between write and read still finds the warm copy; a
// record found off-owner is read-repaired onto the current top-K, so
// churn-displaced records migrate lazily, on the read path, instead of via a
// rebalancing scan), else by a handle-based forward walk down the ranking —
// and what is left when the walk reaches this daemon (or exhausts the
// ranking) executes here. POST /v1/runs hands resolve its whole batch — a
// figure's declared runs arrive as one such request from client.Pool — so a
// batch costs at most one record lookup and one forward per member, however
// many specs. Nothing here waits for a simulation: a forward yields the
// owner's job handle, which the caller polls. Everything is best-effort: a
// lost replica or an unreachable owner costs a byte-identical re-execution,
// never wrongness.

// routedSpec is one spec's state on the read path.
type routedSpec struct {
	wire api.Spec // what a forward sends; its Key names the spec in answers
	spec sweep.RunSpec
	fp   [32]byte
	hex  string // fp's wire form

	ranked []string // rendezvous order over the members, computed at most once
	next   int      // forward-walk position in ranked; -1 once the walk ended

	// res is the answer once handled: a store or replica hit, a member's
	// reply to a forward, or this daemon's own enqueue. A hit's statistics
	// are the stored bytes, passed on undecoded.
	res     api.RawRunResult
	handled bool
}

// newRouted fingerprints a validated spec: the one simstore.Fingerprint of
// its submission, whichever path it then takes.
func newRouted(wire api.Spec, spec sweep.RunSpec) routedSpec {
	fp, _ := simstore.Fingerprint(spec) // never fails
	return routedSpec{wire: wire, spec: spec, fp: fp, hex: simstore.Hex(fp)}
}

// answer records a store hit served by peer.
func (it *routedSpec) answer(stats simstore.EncodedStats, peer string) {
	it.res = api.RawRunResult{
		Key: it.wire.Key, Fingerprint: it.hex, Cached: true, Status: api.StatusDone,
		Stats: stats.JSON, StatsCRC: stats.CRC, Peer: peer,
	}
	it.handled = true
}

// fail settles a spec that could not be submitted at all.
func (it *routedSpec) fail(err error) {
	it.res = api.RawRunResult{Key: it.wire.Key, Status: api.StatusFailed, Error: err.Error()}
	it.handled = true
}

// enqueue executes here a spec the read path left to this daemon: a store
// hit is answered, a miss becomes a (new or shared) job on the local queue.
func (s *Server) enqueue(it *routedSpec) error {
	sub, err := s.queue.SubmitRun(it.wire.Key, it.spec, it.fp)
	if err != nil {
		return err
	}
	if sub.Cached {
		it.answer(sub.Stats, s.Self())
		return nil
	}
	it.res = api.RawRunResult{
		Key: it.wire.Key, Fingerprint: sub.Fingerprint,
		Status: api.StatusQueued, JobID: sub.Job.ID, Peer: s.Self(),
	}
	it.handled = true
	return nil
}

// resolver walks one batch down the read path against one membership
// snapshot.
type resolver struct {
	s       *Server
	members []string
	self    string
	batch   []routedSpec
}

// resolve runs the read path over batch (a no-op single-node). Specs it
// leaves unhandled are the caller's to enqueue here. Only ctx ending cuts it
// short, which the caller reads off ctx.
func (s *Server) resolve(ctx context.Context, batch []routedSpec) {
	if s.node == nil {
		return
	}
	rv := resolver{s: s, members: s.node.Members(), self: s.node.Self(), batch: batch}
	rv.localStore()
	rv.probe(ctx)
	rv.forward(ctx)
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
		if it.handled {
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

// probe asks each unanswered spec's candidates — its top Replicas+1 members
// but self — for its record, each member at most once: round one asks the
// members that are some spec's first candidate (its owner, in steady state)
// about every spec they are a candidate for, round two the rest about what
// is still unanswered. The best-ranked hit wins; one below rank 0 is a
// replica hit and triggers an async read repair. No-op unless K > 1.
func (rv *resolver) probe(ctx context.Context) {
	s := rv.s
	if s.replicas <= 1 || len(rv.members) <= 1 {
		return
	}
	width := min(s.replicas+1, len(rv.members))
	type target struct{ idx, pos int }
	targets := map[string][]target{}
	lead := map[string]bool{} // some spec's first candidate: asked in round one
	for i := range rv.batch {
		it := &rv.batch[i]
		if it.handled {
			continue
		}
		for pos, p := range rv.rank(it)[:width] {
			if p != rv.self {
				targets[p] = append(targets[p], target{i, pos})
				lead[p] = lead[p] || pos == 0 || pos == 1 && it.ranked[0] == rv.self
			}
		}
	}

	type hit struct {
		pos  int
		peer string
		rec  api.RawRecord
	}
	for _, round := range []bool{true, false} {
		var mu sync.Mutex
		best := map[int]hit{}
		var wg sync.WaitGroup
		for peer, ts := range targets {
			if lead[peer] != round {
				continue
			}
			if ts = slices.DeleteFunc(ts, func(t target) bool { return rv.batch[t.idx].handled }); len(ts) == 0 {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				hexes := make([]string, len(ts))
				for k, t := range ts {
					hexes[k] = rv.batch[t.idx].hex
				}
				pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
				defer cancel()
				resp, err := s.peerClient(peer).ProbeRecords(pctx, api.LookupRequest{Fingerprints: hexes})
				if err != nil {
					return // probe misses are free; the forward walk covers it
				}
				found := make(map[string]api.RawRecord, len(resp.Records))
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
			it.answer(simstore.EncodedStats{JSON: h.rec.Stats, CRC: h.rec.StatsCRC}, h.peer)
			if h.pos > 0 {
				atomic.AddUint64(&s.replicaHits, 1)
				go s.readRepair(it.fp, it.spec.Canonical(), h.rec, h.peer, s.topK(it.ranked))
			}
		}
	}
}

// forward offers each still-unanswered spec to its ranked members in order,
// submitting so a hop costs one round-trip and yields a job handle, never a
// pinned connection. Reaching self (or exhausting the ranking) ends a
// spec's walk unhandled.
func (rv *resolver) forward(ctx context.Context) {
	for ctx.Err() == nil {
		groups := map[string][]int{}
		for i := range rv.batch {
			it := &rv.batch[i]
			if it.handled || it.next < 0 {
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
			return
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
