package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/server/api"
	"repro/internal/simstore"
)

// Pool routes requests across a simd cluster from the client side, using the
// same rendezvous ranking the daemons use (internal/cluster): each spec goes
// straight to its owner, so even a client that talks to every member never
// causes a run to execute twice. Peers found unreachable are skipped for
// HealthTTL and requests fail over to the next-ranked member — any daemon
// can answer any request (the cluster forwards internally), owner-first
// routing is only the fast path.
//
// Against a gossip cluster the initial peer list is only a set of seeds:
// the pool refreshes its membership from GET /v1/cluster/membership at most
// once per MembershipTTL, re-ranking over whatever daemons are alive now —
// members that joined after the pool was built are routed to, members that
// left stop being tried.
//
// Waited runs are handle-based: the pool submits without waiting, receives
// a job ID on the owning member per spec, and polls that handle — no HTTP
// connection is pinned for the length of a simulation, and a member that
// dies mid-run costs a resubmit down the ranking instead of a hung request.
//
// A Pool over a single peer behaves exactly like a bare Client.
type Pool struct {
	// HealthTTL is how long a health probe (good or bad) is trusted before
	// re-probing; the zero value means 5 seconds.
	HealthTTL time.Duration

	// MembershipTTL is how often the live member list is refreshed from the
	// cluster (GET /v1/cluster/membership); the zero value means 10 seconds.
	MembershipTTL time.Duration

	// PollInterval is the job-handle poll period for waited runs and
	// figure jobs; the zero value means 150 milliseconds.
	PollInterval time.Duration

	mu          sync.Mutex
	peers       []string // normalized, sorted; current routing set
	clients     map[string]*Client
	health      map[string]healthEntry
	lastRefresh time.Time
	epoch       uint64
}

type healthEntry struct {
	ok      bool
	checked time.Time
}

// NewPool builds a pool over the given peer base URLs (at least one). The
// list is both the initial routing set and the membership-refresh seeds.
func NewPool(peers []string) (*Pool, error) {
	var norm []string
	clients := map[string]*Client{}
	for _, p := range peers {
		n := cluster.Normalize(p)
		if n == "" {
			continue
		}
		if _, dup := clients[n]; dup {
			continue
		}
		clients[n] = New(n)
		norm = append(norm, n)
	}
	if len(norm) == 0 {
		return nil, fmt.Errorf("client: pool needs at least one peer")
	}
	return &Pool{peers: norm, clients: clients, health: map[string]healthEntry{}}, nil
}

// Peers returns a snapshot of the current routing set (normalized). Under
// membership refresh it tracks the live cluster, not the seed list.
func (p *Pool) Peers() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.peers...)
}

// Epoch returns the membership epoch of the last successful refresh (0
// before the first one, and always 0 against a single-node daemon).
func (p *Pool) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// Client returns the client for one peer, creating it if the peer joined
// after the pool was built.
func (p *Pool) Client(peer string) *Client { return p.clientFor(cluster.Normalize(peer)) }

func (p *Pool) clientFor(peer string) *Client {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.clients[peer]
	if !ok {
		c = New(peer)
		p.clients[peer] = c
	}
	return c
}

// MarkUnhealthy records a peer as down (e.g. after a transport error on a
// non-probe request), so subsequent routing skips it for HealthTTL.
func (p *Pool) MarkUnhealthy(peer string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.health[cluster.Normalize(peer)] = healthEntry{ok: false, checked: time.Now()}
}

func (p *Pool) healthTTL() time.Duration {
	if p.HealthTTL > 0 {
		return p.HealthTTL
	}
	return 5 * time.Second
}

func (p *Pool) pollInterval() time.Duration {
	if p.PollInterval > 0 {
		return p.PollInterval
	}
	return 150 * time.Millisecond
}

// maybeRefresh re-fetches the member list if the last refresh is older than
// MembershipTTL. The slot is claimed before the fetch so concurrent callers
// don't stampede; a failed refresh (all peers down, or daemons predating
// the endpoint) keeps the current set and retries next TTL.
func (p *Pool) maybeRefresh(ctx context.Context) {
	ttl := p.MembershipTTL
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	p.mu.Lock()
	if time.Since(p.lastRefresh) < ttl {
		p.mu.Unlock()
		return
	}
	p.lastRefresh = time.Now()
	peers := append([]string(nil), p.peers...)
	p.mu.Unlock()

	for _, peer := range peers {
		rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		var view api.MembershipView
		err := p.clientFor(peer).do(rctx, http.MethodGet, "/v1/cluster/membership", nil, &view, nil)
		cancel()
		if err != nil {
			continue
		}
		p.adopt(view)
		return
	}
}

// adopt replaces the routing set with the active members of a fetched view.
// Dead and departed members are dropped; suspects stay routable (the
// cluster itself still ranks them until the death verdict).
func (p *Pool) adopt(view api.MembershipView) {
	var live []string
	for _, m := range view.Members {
		switch m.Status {
		case "dead", "left":
			continue
		}
		if n := cluster.Normalize(m.Addr); n != "" {
			live = append(live, n)
		}
	}
	if len(live) == 0 {
		return // a view with no routable members is not an upgrade
	}
	sort.Strings(live)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.peers = live
	p.epoch = view.Epoch
	for _, n := range live {
		if _, ok := p.clients[n]; !ok {
			p.clients[n] = New(n)
		}
	}
}

// healthy reports whether peer currently answers /healthz, probing (with a
// 2-second bound) at most once per HealthTTL.
func (p *Pool) healthy(ctx context.Context, peer string) bool {
	p.mu.Lock()
	if e, ok := p.health[peer]; ok && time.Since(e.checked) < p.healthTTL() {
		p.mu.Unlock()
		return e.ok
	}
	p.mu.Unlock()

	probeCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	_, err := p.clientFor(peer).Health(probeCtx)
	ok := err == nil

	p.mu.Lock()
	p.health[peer] = healthEntry{ok: ok, checked: time.Now()}
	p.mu.Unlock()
	return ok
}

// Check verifies that at least one peer is reachable, returning the last
// probe error otherwise.
func (p *Pool) Check(ctx context.Context) error {
	var lastErr error
	for _, peer := range p.Peers() {
		probeCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
		_, err := p.clientFor(peer).Health(probeCtx)
		cancel()
		p.mu.Lock()
		p.health[peer] = healthEntry{ok: err == nil, checked: time.Now()}
		p.mu.Unlock()
		if err == nil {
			return nil
		}
		lastErr = err
	}
	return fmt.Errorf("client: no reachable peer among %v: %w", p.Peers(), lastErr)
}

// healthyRanked filters a ranked peer list down to currently-healthy
// members; if every member looks down, the full ranking is returned so the
// caller's request still gets one real attempt per peer (probes can be
// stale or the probe route broken while the API works).
func (p *Pool) healthyRanked(ctx context.Context, ranked []string) []string {
	var alive []string
	for _, peer := range ranked {
		if p.healthy(ctx, peer) {
			alive = append(alive, peer)
		}
	}
	if len(alive) == 0 {
		return ranked
	}
	return alive
}

// rankedForSpec computes the owner-first failover order for one wire spec
// over the current routing set. Specs whose fingerprint cannot be computed
// client-side (a trace_path that lives on the daemons' filesystem) rank by
// their JSON encoding instead — stable across requests, though not
// owner-aligned; the receiving daemon re-routes them.
func (p *Pool) rankedForSpec(spec api.Spec) []string {
	peers := p.Peers()
	if rs, err := spec.ToRunSpec(); err == nil {
		if fp, err := simstore.Fingerprint(rs); err == nil {
			return cluster.Ranked(fp, peers)
		}
	}
	key := "spec"
	if data, err := json.Marshal(spec); err == nil {
		key = "spec/" + string(data)
	}
	return cluster.RankedKey(key, peers)
}

// RankedFigurePeers returns the healthy members in rendezvous order for a
// figure key: a deterministic entry point per figure (so repeat requests
// reuse the same daemon's warm HTTP connections) with failover order behind
// it.
func (p *Pool) RankedFigurePeers(ctx context.Context, key string) []string {
	return p.healthyRanked(ctx, cluster.RankedKey("figure/"+key, p.Peers()))
}

// Runs submits a batch, routing every spec to its owner daemon and failing
// over to the next-ranked healthy member on transport errors and 5xx
// answers (peer-specific overload). Submission never waits server-side;
// with wait set the pool then polls each returned job handle on the member
// that owns it until terminal, resubmitting down the ranking if that member
// dies mid-run. Results come back in spec order; each carries the answering
// peer. A 4xx *StatusError is returned as-is — re-asking another member
// would not change a validation error.
func (p *Pool) Runs(ctx context.Context, req api.RunRequest, wait bool) (*api.RunResponse, error) {
	p.maybeRefresh(ctx)

	// Group spec indices by first-choice peer, remembering each spec's full
	// failover ranking.
	groups := map[string][]int{}
	rankings := make([][]string, len(req.Specs))
	for i, spec := range req.Specs {
		ranked := p.healthyRanked(ctx, p.rankedForSpec(spec))
		rankings[i] = ranked
		groups[ranked[0]] = append(groups[ranked[0]], i)
	}

	// Owner groups are independent (disjoint result indices), so dispatch
	// them concurrently: a batch spanning several owners costs the slowest
	// owner's submit, not the sum of all of them.
	results := make([]api.RunResult, len(req.Specs))
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	gi := 0
	for peer, idxs := range groups {
		wg.Add(1)
		go func(gi int, peer string, idxs []int) {
			defer wg.Done()
			errs[gi] = p.runGroup(ctx, peer, idxs, req, rankings, results)
		}(gi, peer, idxs)
		gi++
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if !wait {
		return &api.RunResponse{Results: results}, nil
	}

	// Poll the open handles concurrently. Each handle lives on the member
	// named in its result; a poll transport failure marks that member down
	// and resubmits the single spec down its (re-ranked) failover order.
	perrs := make([]error, len(results))
	var pw sync.WaitGroup
	for i := range results {
		if api.IsTerminal(results[i].Status) {
			continue
		}
		pw.Add(1)
		go func(i int) {
			defer pw.Done()
			perrs[i] = p.awaitRun(ctx, req.Specs[i], &results[i])
		}(i)
	}
	pw.Wait()
	for _, err := range perrs {
		if err != nil {
			return nil, err
		}
	}
	return &api.RunResponse{Results: results}, nil
}

// runGroup submits one owner's specs (without waiting), retrying the group
// on the next-ranked peers after a transport failure.
func (p *Pool) runGroup(ctx context.Context, peer string, idxs []int, req api.RunRequest, rankings [][]string, results []api.RunResult) error {
	sub := api.RunRequest{Specs: make([]api.Spec, len(idxs))}
	for k, i := range idxs {
		sub.Specs[k] = req.Specs[i]
	}
	// Failover order: the first spec's ranking (all specs in a group share
	// the same owner; their subsequent rankings rarely diverge, and any
	// member can serve any spec anyway).
	tries := rankings[idxs[0]]
	start := 0
	for i, cand := range tries {
		if cand == peer {
			start = i
			break
		}
	}
	return p.tryPeers(ctx, fmt.Sprintf("%d spec(s)", len(idxs)), tries[start:], func(cand string) error {
		resp, err := p.clientFor(cand).Runs(ctx, sub, false)
		if err != nil {
			return err
		}
		if len(resp.Results) != len(idxs) {
			return &StatusError{Code: 502, Msg: fmt.Sprintf("peer %s answered %d results for %d specs", cand, len(resp.Results), len(idxs))}
		}
		for k, i := range idxs {
			results[i] = resp.Results[k]
			if results[i].Peer == "" {
				results[i].Peer = cand
			}
		}
		return nil
	})
}

// awaitRun polls one open job handle to completion. The handle names a job
// on res.Peer; if that member stops answering (or forgets the job), the
// spec is resubmitted to the next-ranked member — determinism makes the
// duplicate execution harmless and byte-identical — and polling resumes on
// the new handle. Attempts are bounded by the ranking width so a flapping
// cluster fails loudly instead of looping.
func (p *Pool) awaitRun(ctx context.Context, spec api.Spec, res *api.RunResult) error {
	maxAttempts := len(p.Peers()) + 2
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if api.IsTerminal(res.Status) {
			return nil
		}
		if res.JobID == "" {
			return fmt.Errorf("client: spec %q: peer answered status %q with no job handle", spec.Key, res.Status)
		}
		peer := cluster.Normalize(res.Peer)
		st, err := p.clientFor(peer).WaitJob(ctx, res.JobID, p.pollInterval())
		if err == nil {
			res.Status = st.Status
			res.Stats = st.Stats
			res.Error = st.Error
			if st.Fingerprint != "" {
				res.Fingerprint = st.Fingerprint
			}
			return nil
		}
		if ctx.Err() != nil {
			return err
		}
		// A 404 means the member lost the job (restart, eviction); anything
		// non-retriable otherwise is a real answer.
		var se *StatusError
		if errors.As(err, &se) && se.Code != http.StatusNotFound && se.Code < 500 {
			return err
		}
		p.MarkUnhealthy(peer)
		lastErr = err

		// Resubmit down the current ranking (recomputed: membership may
		// have moved since the original submit).
		rerr := p.tryPeers(ctx, fmt.Sprintf("resubmit %q", spec.Key), p.healthyRanked(ctx, p.rankedForSpec(spec)), func(cand string) error {
			resp, err := p.clientFor(cand).Runs(ctx, api.RunRequest{Specs: []api.Spec{spec}}, false)
			if err != nil {
				return err
			}
			if len(resp.Results) != 1 {
				return &StatusError{Code: 502, Msg: fmt.Sprintf("peer %s answered %d results for 1 spec", cand, len(resp.Results))}
			}
			*res = resp.Results[0]
			if res.Peer == "" {
				res.Peer = cand
			}
			return nil
		})
		if rerr != nil {
			return rerr
		}
	}
	return fmt.Errorf("client: spec %q: job handle never completed after %d attempts: %w", spec.Key, maxAttempts, lastErr)
}

// tryPeers is the one failover policy: walk peers in ranked order until
// attempt succeeds; a non-retriable (4xx) answer or context cancellation
// returns immediately, a retriable failure marks the peer unhealthy and
// moves on. label names the work in the every-peer-failed error.
func (p *Pool) tryPeers(ctx context.Context, label string, peers []string, attempt func(peer string) error) error {
	var lastErr error
	for _, peer := range peers {
		err := attempt(peer)
		if err == nil {
			return nil
		}
		if !retriable(err) || ctx.Err() != nil {
			return err
		}
		p.MarkUnhealthy(peer)
		lastErr = err
	}
	return fmt.Errorf("client: %s: every peer failed: %w", label, lastErr)
}

// FigureStream generates a figure on the cluster with live progress: the
// job runs asynchronously on the rendezvous-preferred member and is polled
// to completion, each change of its JobStatus.Progress driving onProgress
// (may be nil); a dead peer fails over to the next-ranked one. Returns the
// terminal job status and the peer that served it. Daemon-answered errors
// (unknown figure, failed figure) return immediately without failover.
func (p *Pool) FigureStream(ctx context.Context, key string, opt api.FigureOptions, onProgress func(*api.Progress)) (*api.JobStatus, string, error) {
	p.maybeRefresh(ctx)
	var st *api.JobStatus
	var served string
	err := p.tryPeers(ctx, "figure "+key, p.RankedFigurePeers(ctx, key), func(peer string) error {
		var perr error
		st, perr = figureStreamOn(ctx, p.clientFor(peer), key, opt, p.pollInterval(), onProgress)
		if perr == nil {
			served = peer
		}
		return perr
	})
	if err != nil {
		return nil, "", err
	}
	return st, served, nil
}

// figureStreamOn runs one async figure job on one daemon and polls it to a
// terminal status, reporting each progress change.
func figureStreamOn(ctx context.Context, c *Client, key string, opt api.FigureOptions, poll time.Duration, onProgress func(*api.Progress)) (*api.JobStatus, error) {
	id, err := c.FigureAsync(ctx, key, opt)
	if err != nil {
		return nil, err
	}
	reported := -1
	return c.waitJob(ctx, id, poll, func(st *api.JobStatus) {
		if onProgress != nil && st.Progress != nil && st.Progress.Done != reported {
			reported = st.Progress.Done
			onProgress(st.Progress)
		}
	})
}

// retriable reports whether err might succeed on a different member:
// transport failures and 5xx answers (overload, internal errors —
// peer-specific conditions) are worth failing over; a 4xx is the daemon
// rejecting the request itself, which every member would reject alike.
func retriable(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code >= 500
	}
	return true
}
