package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"
)

// Membership is gossip-based (SWIM-lite): every member push-pulls its full
// view with the others and with any configured seed nodes, so a daemon
// joins by contacting one live seed. A change is pushed as it happens: a
// member whose ACTIVE set moves, or that refutes a claim about itself, runs
// one extra push-pull round at once, so a join, leave, death or refutation
// reaches every member within a few round trips instead of a heartbeat.
// The heartbeat round does the rest: it detects failures and repairs views
// that missed a push. Failure detection is suspicion-based — a member that
// stops answering is demoted alive → suspect → dead on local timers, and
// refutes a wrongful suspicion by bumping its incarnation. Alive ↔ suspect
// spreads on heartbeats only, since suspects stay routable. The ACTIVE set
// (alive + suspect) is what routing ranks over; every change to it bumps a
// local, monotonically increasing epoch so consumers (server routing,
// client pools) can detect membership churn cheaply. Epochs are per-node
// observations, not consensus: two members may pass through different
// epoch numbers while converging on the same set.

// GossipPath is the HTTP route members exchange views on.
const GossipPath = "/v1/cluster/gossip"

// Status is a member's liveness state as locally observed.
type Status string

const (
	StatusAlive   Status = "alive"
	StatusSuspect Status = "suspect"
	StatusDead    Status = "dead"
	StatusLeft    Status = "left"
)

// precedence orders statuses at equal incarnation: a stronger claim wins.
func precedence(s Status) int {
	switch s {
	case StatusLeft:
		return 3
	case StatusDead:
		return 2
	case StatusSuspect:
		return 1
	default:
		return 0
	}
}

// Member is one row of a gossiped view.
type Member struct {
	Addr        string `json:"addr"`
	Incarnation int64  `json:"incarnation"`
	Status      Status `json:"status"`
}

// View is the gossip wire format: the full membership table as the sender
// sees it. A gossip POST carries the sender's view; the response carries
// the receiver's, so one round-trip is a full push-pull exchange.
type View struct {
	From    string   `json:"from"`
	Epoch   uint64   `json:"epoch"`
	Members []Member `json:"members"`
}

// NodeConfig configures a gossip node. With no Seeds it is a single-member
// cluster that still accepts joins (the first daemon of a new cluster).
type NodeConfig struct {
	// Self is this daemon's advertised base URL.
	Self string
	// Seeds are bootstrap contact points (other daemons' base URLs). They
	// are gossip targets until absorbed into the view, and remain fallback
	// targets so an isolated node can rejoin after a partition.
	Seeds []string

	// HeartbeatEvery is the gossip period (default 1s). SuspectAfter and
	// DeadAfter are how long a member may stay silent before being demoted
	// (defaults 4x and 12x the heartbeat).
	HeartbeatEvery time.Duration
	SuspectAfter   time.Duration
	DeadAfter      time.Duration

	// OnChange, if set, fires after every active-set change with the new
	// epoch and sorted active member list. Called outside internal locks.
	OnChange func(epoch uint64, members []string)
}

// tombstoneBeats is how many heartbeats dead/left entries are remembered, so
// that stale gossip cannot resurrect them.
const tombstoneBeats = 60

type memberState struct {
	Member
	lastOK time.Time // last successful contact either direction
	downAt time.Time // when the member went dead/left (tombstone clock)
}

// Node tracks cluster membership and exposes the rendezvous placement API
// over the current ACTIVE set. All methods are safe for concurrent use.
type Node struct {
	self    string
	seeds   []string
	hb      time.Duration
	suspect time.Duration
	dead    time.Duration
	onChg   func(uint64, []string)
	httpc   *http.Client

	mu      sync.Mutex
	members map[string]*memberState
	epoch   uint64
	active  []string // cached sorted ACTIVE set, incl. self
	leaving bool
	started bool
	quit    chan struct{}
	// wake asks the gossip loop for one immediate round. It holds one
	// token, so wake-ups that arrive while a round is pending coalesce.
	wake chan struct{}
	wg   sync.WaitGroup
}

// NewNode builds a node; Start begins gossiping.
func NewNode(cfg NodeConfig) (*Node, error) {
	self := Normalize(cfg.Self)
	if self == "" {
		return nil, errors.New("cluster: node needs a self address")
	}
	hb := cfg.HeartbeatEvery
	if hb <= 0 {
		hb = time.Second
	}
	sus := cfg.SuspectAfter
	if sus <= 0 {
		sus = 4 * hb
	}
	dead := cfg.DeadAfter
	if dead <= 0 {
		dead = 12 * hb
	}
	n := &Node{
		self:    self,
		hb:      hb,
		suspect: sus,
		dead:    dead,
		onChg:   cfg.OnChange,
		httpc:   &http.Client{Timeout: 2 * hb},
		members: make(map[string]*memberState),
		epoch:   1,
		quit:    make(chan struct{}),
		wake:    make(chan struct{}, 1),
	}
	// Incarnation is the startup wall-clock so a restarted daemon's fresh
	// entry always beats its own stale pre-crash entry.
	now := time.Now()
	n.members[self] = &memberState{
		Member: Member{Addr: self, Incarnation: now.UnixNano(), Status: StatusAlive},
		lastOK: now,
	}
	for _, s := range cfg.Seeds {
		s = Normalize(s)
		if s != "" && s != self {
			n.seeds = append(n.seeds, s)
		}
	}
	n.active = n.activeLocked()
	return n, nil
}

// Self returns this node's advertised address.
func (n *Node) Self() string { return n.self }

// Epoch returns the local membership epoch. It bumps exactly when the
// ACTIVE set changes.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// Members returns the sorted ACTIVE member addresses (alive + suspect,
// self included). The slice is a copy.
func (n *Node) Members() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.active...)
}

// MemberEntries returns every tracked member (tombstones included),
// sorted by address.
func (n *Node) MemberEntries() []Member {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Member, 0, len(n.members))
	for _, ms := range n.members {
		out = append(out, ms.Member)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Len returns the ACTIVE member count.
func (n *Node) Len() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.active)
}

// Ranked returns the ACTIVE members ordered by rendezvous weight for fp
// (owner first) — the probe/replication/failover order.
func (n *Node) Ranked(fp [32]byte) []string { return Ranked(fp, n.Members()) }

// activeLocked recomputes the sorted ACTIVE set. Callers hold n.mu.
func (n *Node) activeLocked() []string {
	out := make([]string, 0, len(n.members))
	for addr, ms := range n.members {
		if ms.Status == StatusAlive || ms.Status == StatusSuspect {
			out = append(out, addr)
		}
	}
	sort.Strings(out)
	return out
}

// refreshLocked compares the ACTIVE set against the cache, bumps the epoch
// on change, and returns a callback to fire once the lock is released (nil
// when nothing changed).
func (n *Node) refreshLocked() func() {
	act := n.activeLocked()
	if slices.Equal(act, n.active) {
		return nil
	}
	n.active = act
	n.epoch++
	n.wakeLocked()
	if n.onChg == nil {
		return nil
	}
	epoch, snap, cb := n.epoch, append([]string(nil), act...), n.onChg
	return func() { cb(epoch, snap) }
}

// wakeLocked asks a running gossip loop to push a change now rather than
// at the next heartbeat. It never blocks. A node that has not started has
// no loop to wake, and a leaving one pushes its own farewell in Stop.
// Callers hold n.mu.
func (n *Node) wakeLocked() {
	if !n.started || n.leaving {
		return
	}
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// mergeLocked folds one gossiped row into the table. Higher incarnation
// wins; at equal incarnation the stronger status claim wins (left > dead >
// suspect > alive). A node that hears itself declared anything but alive
// refutes by bumping its incarnation past the claim.
func (n *Node) mergeLocked(rm Member, now time.Time) {
	rm.Addr = Normalize(rm.Addr)
	if rm.Addr == "" {
		return
	}
	if rm.Addr == n.self {
		if !n.leaving && (rm.Status != StatusAlive || rm.Incarnation > n.members[n.self].Incarnation) {
			ms := n.members[n.self]
			if rm.Incarnation >= ms.Incarnation {
				ms.Incarnation = rm.Incarnation + 1
				n.wakeLocked()
			}
			ms.Status = StatusAlive
			ms.lastOK = now
		}
		return
	}
	ms, ok := n.members[rm.Addr]
	if !ok {
		n.members[rm.Addr] = &memberState{Member: rm, lastOK: now}
		return
	}
	if rm.Incarnation < ms.Incarnation {
		return
	}
	if rm.Incarnation == ms.Incarnation && precedence(rm.Status) <= precedence(ms.Status) {
		return
	}
	wasDown := ms.Status == StatusDead || ms.Status == StatusLeft
	ms.Member = rm
	if wasDown && (rm.Status == StatusAlive || rm.Status == StatusSuspect) {
		ms.lastOK = now // fresh grace period on resurrection
	}
	if rm.Status == StatusDead || rm.Status == StatusLeft {
		ms.downAt = now
	}
}

// sweepLocked runs the suspicion timers and prunes expired tombstones.
func (n *Node) sweepLocked(now time.Time) {
	for addr, ms := range n.members {
		if addr == n.self {
			continue
		}
		switch ms.Status {
		case StatusAlive:
			if now.Sub(ms.lastOK) > n.suspect {
				ms.Status = StatusSuspect
			}
		case StatusSuspect:
			if now.Sub(ms.lastOK) > n.dead {
				ms.Status = StatusDead
				ms.downAt = now
			}
		case StatusDead, StatusLeft:
			if now.Sub(ms.downAt) > tombstoneBeats*n.hb {
				delete(n.members, addr)
			}
		}
	}
}

// view snapshots the local table as a wire View.
func (n *Node) view() View {
	n.mu.Lock()
	defer n.mu.Unlock()
	v := View{From: n.self, Epoch: n.epoch}
	for _, ms := range n.members {
		v.Members = append(v.Members, ms.Member)
	}
	sort.Slice(v.Members, func(i, j int) bool { return v.Members[i].Addr < v.Members[j].Addr })
	return v
}

// absorb merges a remote view and fires OnChange if the ACTIVE set moved.
// direct marks views received straight from their sender (proof the sender
// is reachable, which clears a local suspicion without an incarnation
// round-trip). A sender held dead stays dead: as in SWIM, only its
// refutation at a higher incarnation (mergeLocked) brings it back, which
// our answer — listing it dead — prompts.
func (n *Node) absorb(v View, direct bool) {
	now := time.Now()
	n.mu.Lock()
	for _, m := range v.Members {
		n.mergeLocked(m, now)
	}
	if from := Normalize(v.From); direct && from != "" && from != n.self {
		n.heardFromLocked(from, now)
	}
	cb := n.refreshLocked()
	n.mu.Unlock()
	if cb != nil {
		cb()
	}
}

// heardFromLocked records direct contact with addr: it restarts the
// member's suspicion timer and clears a suspicion. A dead or departed
// member is left as it is. Callers hold n.mu.
func (n *Node) heardFromLocked(addr string, now time.Time) {
	ms, ok := n.members[addr]
	if !ok || ms.Status == StatusDead || ms.Status == StatusLeft {
		return
	}
	ms.lastOK = now
	ms.Status = StatusAlive
}

// Handler serves GossipPath: merge the poster's view, answer with ours.
func (n *Node) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var v View
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&v); err != nil {
			http.Error(w, "bad gossip view: "+err.Error(), http.StatusBadRequest)
			return
		}
		n.absorb(v, true)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(n.view())
	})
}

// gossipTargets lists who this round should contact: every ACTIVE member
// plus any seed not currently active (bootstrap and partition rejoin).
func (n *Node) gossipTargets() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	seen := map[string]bool{n.self: true}
	var out []string
	for _, addr := range n.active {
		if !seen[addr] {
			seen[addr] = true
			out = append(out, addr)
		}
	}
	for _, s := range n.seeds {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// Sync runs one push-pull round against every target, then sweeps timers.
// It is the body of the heartbeat loop, exported so tests and servers can
// force convergence.
func (n *Node) Sync(ctx context.Context) {
	targets := n.gossipTargets()
	var wg sync.WaitGroup
	for _, t := range targets {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			n.exchange(ctx, addr)
		}(t)
	}
	wg.Wait()
	now := time.Now()
	n.mu.Lock()
	n.sweepLocked(now)
	cb := n.refreshLocked()
	n.mu.Unlock()
	if cb != nil {
		cb()
	}
}

// exchange POSTs our view to one peer and absorbs the reply.
func (n *Node) exchange(ctx context.Context, addr string) {
	body, err := json.Marshal(n.view())
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(ctx, 2*n.hb)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+GossipPath, bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.httpc.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return
	}
	// Success: the peer answered, whoever it was.
	n.mu.Lock()
	n.heardFromLocked(addr, time.Now())
	n.mu.Unlock()
	n.absorb(v, false)
}

// Start launches the gossip loop. The first round fires immediately so a
// joining daemon is absorbed within one RTT of startup, not one heartbeat;
// after that a round runs on every heartbeat and whenever a change wakes
// the loop.
func (n *Node) Start() {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return
	}
	n.started = true
	n.mu.Unlock()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		ctx := context.Background()
		n.Sync(ctx)
		t := time.NewTicker(n.hb)
		defer t.Stop()
		for {
			select {
			case <-n.quit:
				return
			case <-t.C:
				n.Sync(ctx)
			case <-n.wake:
				n.Sync(ctx)
			}
		}
	}()
}

// Crash halts the gossip loop with no farewell — the silence of a killed
// process rather than a graceful leave. Peers must discover the failure
// through their own suspicion timers. Failure-injection harnesses use this;
// production shutdown goes through Stop.
func (n *Node) Crash() {
	n.mu.Lock()
	if n.leaving {
		n.mu.Unlock()
		return
	}
	n.leaving = true
	wasStarted := n.started
	n.mu.Unlock()
	if wasStarted {
		close(n.quit)
		n.wg.Wait()
	}
}

// Stop leaves gracefully: mark self Left at a bumped incarnation, push the
// farewell to the active members, and halt the loop. Peers drop a Left
// member immediately instead of waiting out the suspicion timers.
func (n *Node) Stop(ctx context.Context) {
	n.mu.Lock()
	if n.leaving {
		n.mu.Unlock()
		return
	}
	n.leaving = true
	wasStarted := n.started
	ms := n.members[n.self]
	ms.Incarnation++
	ms.Status = StatusLeft
	ms.downAt = time.Now()
	cb := n.refreshLocked()
	n.mu.Unlock()
	if cb != nil {
		cb()
	}
	if wasStarted {
		close(n.quit)
		n.wg.Wait()
	}
	// Farewell push: best effort, bounded by ctx.
	var wg sync.WaitGroup
	for _, t := range n.gossipTargets() {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			n.exchange(ctx, addr)
		}(t)
	}
	wg.Wait()
}
