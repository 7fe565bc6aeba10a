package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/server/api"
	"repro/internal/sweep"
)

const (
	// membershipTTL is how often the live member list is refreshed from the
	// cluster (GET /v1/cluster/membership).
	membershipTTL = 10 * time.Second
	// probeTimeout bounds a /healthz probe or a membership fetch.
	probeTimeout = 2 * time.Second
	// resubmitLimit is how many times one run's job handle may be lost
	// before the run is reported failed.
	resubmitLimit = 3
)

// Pool is the sweep.Executor that runs declared batches on a simd cluster:
// what paperfigs -server hands the figure harness. Routing is the cluster's
// job, not the client's: any live member accepts any batch and forwards each
// run to its owner in one hop (internal/server's routing.go is the only place
// that knows how a spec finds its owner). The pool therefore keeps just a
// member list and a failover policy — a batch enters at a deterministic
// member per its first run's key (so a repeat figure reuses the same daemon's
// warm HTTP connections), and a member that does not answer costs a move to
// the next one.
//
// The initial peer list is only a set of seeds: the pool refreshes its member
// list from GET /v1/cluster/membership at most once per membershipTTL, so
// members that joined after the pool was built are used and members that
// left stop being tried.
type Pool struct {
	// OnProgress, when non-nil, is invoked as each run of a batch settles,
	// like sweep.Runner's hook (serialized, never concurrent).
	OnProgress func(sweep.Progress)

	mu          sync.Mutex
	peers       []string // normalized; the current member list
	lastRefresh time.Time
}

// NewPool builds a pool over the given peer base URLs (at least one). The
// list is both the initial member list and the membership-refresh seeds.
func NewPool(peers []string) (*Pool, error) {
	var norm []string
	seen := map[string]bool{}
	for _, p := range peers {
		if n := cluster.Normalize(p); n != "" && !seen[n] {
			seen[n] = true
			norm = append(norm, n)
		}
	}
	if len(norm) == 0 {
		return nil, fmt.Errorf("client: pool needs at least one peer")
	}
	return &Pool{peers: norm}, nil
}

// Peers returns a snapshot of the current member list (normalized). Under
// membership refresh it tracks the live cluster, not the seed list.
func (p *Pool) Peers() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.peers...)
}

// maybeRefresh re-fetches the member list if the last refresh is older than
// membershipTTL. The slot is claimed before the fetch so concurrent callers
// don't stampede; a failed refresh (all peers down) keeps the current list
// and retries next TTL.
func (p *Pool) maybeRefresh(ctx context.Context) {
	p.mu.Lock()
	if time.Since(p.lastRefresh) < membershipTTL {
		p.mu.Unlock()
		return
	}
	p.lastRefresh = time.Now()
	p.mu.Unlock()

	for _, peer := range p.Peers() {
		rctx, cancel := context.WithTimeout(ctx, probeTimeout)
		var view api.MembershipView
		err := New(peer).do(rctx, http.MethodGet, "/v1/cluster/membership", nil, &view)
		cancel()
		if err != nil {
			continue
		}
		p.adopt(view)
		return
	}
}

// adopt replaces the member list with the active members of a fetched view.
// Dead and departed members are dropped; suspects stay (the cluster itself
// still ranks them until the death verdict).
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
		return // a view with no usable members is not an upgrade
	}
	sort.Strings(live)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.peers = live
}

// Check verifies that at least one peer is reachable, returning the last
// probe error otherwise.
func (p *Pool) Check(ctx context.Context) error {
	var lastErr error
	for _, peer := range p.Peers() {
		probeCtx, cancel := context.WithTimeout(ctx, probeTimeout)
		_, err := New(peer).Health(probeCtx)
		cancel()
		if err == nil {
			return nil
		}
		lastErr = err
	}
	return fmt.Errorf("client: no reachable peer among %v: %w", p.Peers(), lastErr)
}

// tryPeers is the one failover policy: walk peers in order until attempt
// succeeds; a non-retriable (4xx) answer or context cancellation returns
// immediately, a retriable failure moves on to the next peer. label names
// the work in the every-peer-failed error.
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
		lastErr = err
	}
	return fmt.Errorf("client: %s: every peer failed: %w", label, lastErr)
}

// Run executes a declared batch on the cluster (sweep.Executor). The batch
// goes out as one POST /v1/runs to an entry member; store hits come back
// inline, and each job handle is polled until it ends at the member that
// holds it (RunResult.Peer; the entry when a single-node daemon names none),
// so a poll costs one request wherever the run was forwarded. A handle
// that is lost — its owner died, or no member knows the ID any more — says
// nothing about the run, so the spec is submitted again, and determinism
// makes whichever member executes it byte-identical; a run whose job failed
// did fail, and is reported. Giving up on the batch (ctx) stops the polling
// only: no job is ever cancelled, so queued runs finish into the stores.
// Results are positional; on failure the lowest-index error is returned with
// them.
func (p *Pool) Run(ctx context.Context, specs []sweep.RunSpec) ([]sweep.Result, error) {
	results := make([]sweep.Result, len(specs))
	todo := make([]int, len(specs))
	for i, spec := range specs {
		results[i] = sweep.Result{Index: i, Key: spec.Key}
		todo[i] = i
	}
	settled := 0
	settle := func(i int, r api.RunResult) {
		switch {
		case r.Status == api.StatusDone && r.Stats != nil:
			results[i].Stats = *r.Stats
		case r.Error != "":
			results[i].Err = fmt.Errorf("sweep: run %q: %s", specs[i].Key, r.Error)
		default:
			results[i].Err = fmt.Errorf("sweep: run %q: job %s ended %s without statistics", specs[i].Key, r.JobID, r.Status)
		}
		settled++
		if p.OnProgress != nil {
			p.OnProgress(sweep.Progress{Done: settled, Total: len(specs), Key: specs[i].Key})
		}
	}

	for attempt := 0; len(todo) > 0; attempt++ {
		req := api.RunRequest{Specs: make([]api.Spec, len(todo))}
		for k, i := range todo {
			req.Specs[k] = api.FromRunSpec(specs[i])
		}
		resp, entry, err := p.submit(ctx, req)
		if err != nil {
			return results, err
		}
		var lost []int
		for k, i := range todo {
			r := resp.Results[k]
			if !api.IsTerminal(r.Status) && r.JobID != "" {
				st, err := entry.at(r.Peer).WaitJob(ctx, r.JobID, 0)
				if ctx.Err() != nil {
					return results, ctx.Err()
				}
				switch {
				case err == nil:
					r.Status, r.Stats, r.Error = st.Status, st.Stats, st.Error
				case attempt < resubmitLimit:
					lost = append(lost, i)
					continue
				default:
					r.Error = fmt.Sprintf("handle lost %d times, last: %v", attempt+1, err)
				}
			}
			settle(i, r)
		}
		todo = lost
	}
	for _, r := range results {
		if r.Err != nil {
			return results, r.Err
		}
	}
	return results, nil
}

// submit sends one batch to its entry member, failing over past members that
// do not answer, and returns the answer with a client for the member that
// gave it.
func (p *Pool) submit(ctx context.Context, req api.RunRequest) (*api.RunResponse, *Client, error) {
	p.maybeRefresh(ctx)
	var resp *api.RunResponse
	var entry *Client
	label := fmt.Sprintf("batch of %d runs", len(req.Specs))
	err := p.tryPeers(ctx, label, cluster.RankedKey(req.Specs[0].Key, p.Peers()), func(peer string) error {
		c := New(peer)
		r, err := c.Runs(ctx, req, false)
		if err != nil {
			return err
		}
		if len(r.Results) != len(req.Specs) {
			return fmt.Errorf("client: %s answered %d results for %d runs", peer, len(r.Results), len(req.Specs))
		}
		resp, entry = r, c
		return nil
	})
	return resp, entry, err
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
