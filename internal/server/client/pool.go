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
)

const (
	// membershipTTL is how often the live member list is refreshed from the
	// cluster (GET /v1/cluster/membership).
	membershipTTL = 10 * time.Second
	// pollInterval is the job-handle poll period of figure jobs.
	pollInterval = 150 * time.Millisecond
	// probeTimeout bounds a /healthz probe or a membership fetch.
	probeTimeout = 2 * time.Second
)

// Pool picks an entry point into a simd cluster for whole-figure requests.
// Routing is the cluster's job, not the client's: any live member accepts any
// request and forwards each run to its owner in one hop (internal/server's
// routing.go is the only place that knows how a spec finds its owner). The
// pool therefore keeps just a member list and a failover policy — a figure
// goes to a deterministic member per figure key (so repeat requests reuse the
// same daemon's warm HTTP connections), and a member that does not answer
// costs a move to the next one.
//
// The initial peer list is only a set of seeds: the pool refreshes its member
// list from GET /v1/cluster/membership at most once per membershipTTL, so
// members that joined after the pool was built are used and members that
// left stop being tried.
//
// A Pool over a single peer behaves exactly like a bare Client.
type Pool struct {
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
		err := New(peer).do(rctx, http.MethodGet, "/v1/cluster/membership", nil, &view, nil)
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

// FigureStream generates a figure on the cluster with live progress: the
// job runs asynchronously on the figure's preferred member (a rendezvous
// order over the member URLs keyed by the figure — an entry-point choice,
// not run placement) and is polled to completion, each change of its
// JobStatus.Progress driving onProgress (may be nil); a dead peer fails over
// to the next one in that order. Returns the terminal job status and the peer
// that served it. Daemon-answered errors (unknown figure, failed figure)
// return immediately without failover.
func (p *Pool) FigureStream(ctx context.Context, key string, opt api.FigureOptions, onProgress func(*api.Progress)) (*api.JobStatus, string, error) {
	p.maybeRefresh(ctx)
	var st *api.JobStatus
	var served string
	err := p.tryPeers(ctx, "figure "+key, cluster.RankedKey("figure/"+key, p.Peers()), func(peer string) error {
		c := New(peer)
		id, err := c.FigureAsync(ctx, key, opt)
		if err != nil {
			return err
		}
		reported := -1
		st, err = c.waitJob(ctx, id, pollInterval, func(st *api.JobStatus) {
			if onProgress != nil && st.Progress != nil && st.Progress.Done != reported {
				reported = st.Progress.Done
				onProgress(st.Progress)
			}
		})
		served = peer
		return err
	})
	if err != nil {
		return nil, "", err
	}
	return st, served, nil
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
