package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startNode binds a real listener first (the self address must be known
// before the node exists), builds the node, and serves its gossip handler.
func startNode(t *testing.T, cfg NodeConfig) *Node {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Self = "http://" + ln.Addr().String()
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := &testServer{}
	h := n.Handler()
	mux := http.NewServeMux()
	mux.Handle("POST "+GossipPath, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ts.posts.Add(1)
		h.ServeHTTP(w, r)
	}))
	ts.srv = &http.Server{Handler: mux}
	go ts.srv.Serve(ln)
	nodeServersMu.Lock()
	nodeServers[n] = ts
	nodeServersMu.Unlock()
	t.Cleanup(func() { ts.srv.Close() })
	return n
}

// testServer is a started node's gossip listener and the count of POSTs
// its handler has served.
type testServer struct {
	srv   *http.Server
	posts atomic.Int64
}

// gossipPosts returns how many gossip POSTs n's handler has served.
func gossipPosts(n *Node) int64 {
	nodeServersMu.Lock()
	defer nodeServersMu.Unlock()
	return nodeServers[n].posts.Load()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestJoinViaSeed is the bootstrap path: a second daemon pointed at a seed
// is absorbed by both sides within one sync, and both epochs move.
func TestJoinViaSeed(t *testing.T) {
	a := startNode(t, NodeConfig{HeartbeatEvery: 50 * time.Millisecond})
	if got := a.Len(); got != 1 {
		t.Fatalf("fresh node Len = %d, want 1", got)
	}
	e0 := a.Epoch()

	b := startNode(t, NodeConfig{HeartbeatEvery: 50 * time.Millisecond, Seeds: []string{a.Self()}})
	b.Sync(context.Background())

	for _, n := range []*Node{a, b} {
		if n.Len() != 2 {
			t.Fatalf("%s Len = %d after join, want 2", n.Self(), n.Len())
		}
	}
	if a.Epoch() <= e0 {
		t.Errorf("seed epoch did not bump on join: %d -> %d", e0, a.Epoch())
	}
	wantMembers := a.Members()
	gotMembers := b.Members()
	if len(wantMembers) != 2 || !slices.Equal(wantMembers, gotMembers) {
		t.Errorf("views diverge: a=%v b=%v", wantMembers, gotMembers)
	}
	if ra, rb := a.Ranked([32]byte{1}), b.Ranked([32]byte{1}); !slices.Equal(ra, rb) {
		t.Errorf("members rank a fingerprint differently: a=%v b=%v", ra, rb)
	}
}

// TestTransitiveJoin: C seeds only on B, yet A learns of C through B's
// gossip — membership is transitive, not star-shaped around seeds.
func TestTransitiveJoin(t *testing.T) {
	a := startNode(t, NodeConfig{HeartbeatEvery: 50 * time.Millisecond})
	b := startNode(t, NodeConfig{HeartbeatEvery: 50 * time.Millisecond, Seeds: []string{a.Self()}})
	b.Sync(context.Background())
	c := startNode(t, NodeConfig{HeartbeatEvery: 50 * time.Millisecond, Seeds: []string{b.Self()}})
	c.Sync(context.Background())
	// A hasn't talked to C; one more B round spreads the word.
	b.Sync(context.Background())
	a.Sync(context.Background())
	for _, n := range []*Node{a, b, c} {
		if n.Len() != 3 {
			t.Fatalf("%s Len = %d, want 3 (members %v)", n.Self(), n.Len(), n.Members())
		}
	}
}

// TestSuspicionThenDeath drives the failure detector: a silent member is
// demoted suspect (still routable) then dead (dropped from the active
// set), each demotion observable through the epoch.
func TestSuspicionThenDeath(t *testing.T) {
	cfg := NodeConfig{
		HeartbeatEvery: 20 * time.Millisecond,
		SuspectAfter:   60 * time.Millisecond,
		DeadAfter:      150 * time.Millisecond,
	}
	a := startNode(t, cfg)
	bcfg := cfg
	bcfg.Seeds = []string{a.Self()}
	b := startNode(t, bcfg)
	b.Sync(context.Background())
	if a.Len() != 2 {
		t.Fatalf("join failed: a.Len = %d", a.Len())
	}

	// Silence B without a graceful leave: close its listener only.
	bURL := b.Self()
	killNodeServer(t, b)

	epochAtJoin := a.Epoch()
	waitFor(t, "suspicion", func() bool {
		a.Sync(context.Background())
		for _, m := range a.MemberEntries() {
			if m.Addr == bURL && m.Status == StatusSuspect {
				return true
			}
		}
		return false
	})
	// Suspect members stay in the active (routable) set.
	if a.Len() != 2 {
		t.Errorf("suspect member dropped from active set: Len = %d", a.Len())
	}
	waitFor(t, "death", func() bool {
		a.Sync(context.Background())
		return a.Len() == 1
	})
	if a.Epoch() <= epochAtJoin {
		t.Errorf("epoch did not bump on death: %d -> %d", epochAtJoin, a.Epoch())
	}
}

// killNodeServer silences a node abruptly (no graceful leave): its gossip
// listener closes but its Node is never stopped, mimicking a crash.
func killNodeServer(t *testing.T, n *Node) {
	t.Helper()
	nodeServersMu.Lock()
	ts := nodeServers[n]
	nodeServersMu.Unlock()
	if ts == nil {
		t.Fatal("no server registered for node")
	}
	ts.srv.Close()
}

var (
	nodeServersMu sync.Mutex
	nodeServers   = map[*Node]*testServer{}
)

// TestGracefulLeaveIsImmediate: Stop pushes a farewell, so the peer drops
// the member without waiting out suspicion timers.
func TestGracefulLeaveIsImmediate(t *testing.T) {
	a := startNode(t, NodeConfig{HeartbeatEvery: 50 * time.Millisecond})
	b := startNode(t, NodeConfig{HeartbeatEvery: 50 * time.Millisecond, Seeds: []string{a.Self()}})
	b.Sync(context.Background())
	if a.Len() != 2 {
		t.Fatalf("join failed: a.Len = %d", a.Len())
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	b.Stop(ctx)
	if got := a.Len(); got != 1 {
		t.Fatalf("a.Len = %d right after b.Stop, want 1 (farewell push)", got)
	}
	for _, m := range a.MemberEntries() {
		if m.Addr == b.Self() && m.Status != StatusLeft {
			t.Errorf("left member recorded as %s, want left", m.Status)
		}
	}
}

// TestRefutation: a node hearing itself declared dead reasserts alive at a
// higher incarnation, and the gossiper accepts the refutation.
func TestRefutation(t *testing.T) {
	a := startNode(t, NodeConfig{HeartbeatEvery: 50 * time.Millisecond})
	var selfInc int64
	for _, m := range a.MemberEntries() {
		if m.Addr == a.Self() {
			selfInc = m.Incarnation
		}
	}
	// Forge a view claiming A is dead at its current incarnation.
	forged := View{From: "http://127.0.0.1:1", Members: []Member{
		{Addr: a.Self(), Incarnation: selfInc, Status: StatusDead},
	}}
	body, _ := json.Marshal(forged)
	resp, err := http.Post(a.Self()+GossipPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var reply View
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, m := range reply.Members {
		if m.Addr == a.Self() {
			found = true
			if m.Status != StatusAlive {
				t.Errorf("self status after forged death = %s, want alive", m.Status)
			}
			if m.Incarnation <= selfInc {
				t.Errorf("incarnation not bumped past the claim: %d <= %d", m.Incarnation, selfInc)
			}
		}
	}
	if !found {
		t.Fatal("reply view lost the self entry")
	}
	if a.Len() != 1 {
		t.Errorf("a.Len = %d after refutation, want 1", a.Len())
	}
}

// TestEpochStableWithoutChurn: repeated syncs with a stable set must not
// bump the epoch — consumers treat epoch change as "re-rank now".
func TestEpochStableWithoutChurn(t *testing.T) {
	a := startNode(t, NodeConfig{HeartbeatEvery: 50 * time.Millisecond})
	b := startNode(t, NodeConfig{HeartbeatEvery: 50 * time.Millisecond, Seeds: []string{a.Self()}})
	b.Sync(context.Background())
	e := a.Epoch()
	for i := 0; i < 5; i++ {
		a.Sync(context.Background())
		b.Sync(context.Background())
	}
	if a.Epoch() != e {
		t.Errorf("epoch moved %d -> %d with a stable membership", e, a.Epoch())
	}
}

// TestRestartRejoins: a node that dies and comes back on the same address
// (fresh incarnation) is re-absorbed despite the tombstone.
func TestRestartRejoins(t *testing.T) {
	cfg := NodeConfig{
		HeartbeatEvery: 20 * time.Millisecond,
		SuspectAfter:   40 * time.Millisecond,
		DeadAfter:      80 * time.Millisecond,
	}
	a := startNode(t, cfg)
	bcfg := cfg
	bcfg.Seeds = []string{a.Self()}
	b := startNode(t, bcfg)
	b.Sync(context.Background())
	bURL := b.Self()
	killNodeServer(t, b)
	waitFor(t, "death", func() bool {
		a.Sync(context.Background())
		return a.Len() == 1
	})
	// Restart on the same address with a newer incarnation.
	ln, err := net.Listen("tcp", bURL[len("http://"):])
	if err != nil {
		t.Skipf("could not rebind %s: %v", bURL, err)
	}
	b2, err := NewNode(NodeConfig{Self: bURL, Seeds: []string{a.Self()}, HeartbeatEvery: cfg.HeartbeatEvery})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("POST "+GossipPath, b2.Handler())
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	b2.Sync(context.Background())
	if a.Len() != 2 {
		t.Fatalf("a.Len = %d after restart rejoin, want 2", a.Len())
	}
}

// TestHandlerRejectsGet: the gossip route is POST-only.
func TestHandlerRejectsGet(t *testing.T) {
	n, err := NewNode(NodeConfig{Self: "http://a:1"})
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	n.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, GossipPath, nil))
	if rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET gossip = %d, want 405", rr.Code)
	}
}

// TestOnChangeFires: the callback reports every active-set change with a
// monotonically increasing epoch.
func TestOnChangeFires(t *testing.T) {
	fired := make(chan struct{}, 16)
	var mu sync.Mutex
	var lastEpoch uint64
	a := startNode(t, NodeConfig{
		HeartbeatEvery: 50 * time.Millisecond,
		OnChange: func(epoch uint64, members []string) {
			mu.Lock()
			if epoch <= lastEpoch {
				t.Errorf("OnChange epoch went backwards: %d after %d", epoch, lastEpoch)
			}
			lastEpoch = epoch
			mu.Unlock()
			fired <- struct{}{}
		},
	})
	b := startNode(t, NodeConfig{HeartbeatEvery: 50 * time.Millisecond, Seeds: []string{a.Self()}})
	b.Sync(context.Background())
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("OnChange never fired on join")
	}
}

// threeStarted starts a seed and two nodes that join through it, each with
// an hour-long heartbeat so that only a pushed change can spread before
// the test ends, and waits until all three list three members.
func threeStarted(t *testing.T) []*Node {
	t.Helper()
	cfg := NodeConfig{HeartbeatEvery: time.Hour}
	a := startNode(t, cfg)
	cfg.Seeds = []string{a.Self()}
	nodes := []*Node{a, startNode(t, cfg), startNode(t, cfg)}
	for _, n := range nodes {
		n.Start()
		t.Cleanup(n.Crash)
	}
	within(t, time.Second, "three members in every view", func() bool {
		return activeEverywhere(nodes, 3, "")
	})
	// The views agree, but the last pushes may still be in flight: wait
	// until no POST lands for 50 ms.
	last, quietSince := totalPosts(nodes), time.Now()
	within(t, time.Second, "no gossip for 50 ms", func() bool {
		if p := totalPosts(nodes); p != last {
			last, quietSince = p, time.Now()
		}
		return time.Since(quietSince) >= 50*time.Millisecond
	})
	return nodes
}

// totalPosts sums the gossip POSTs the nodes' handlers have served.
func totalPosts(nodes []*Node) int64 {
	var sum int64
	for _, n := range nodes {
		sum += gossipPosts(n)
	}
	return sum
}

// activeEverywhere reports whether every node lists want active members,
// addr among them when it is not empty.
func activeEverywhere(nodes []*Node, want int, addr string) bool {
	for _, n := range nodes {
		m := n.Members()
		if len(m) != want || addr != "" && !slices.Contains(m, addr) {
			return false
		}
	}
	return true
}

// within polls cond until it holds or d has passed.
func within(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s not reached within %v", what, d)
		}
		time.Sleep(time.Millisecond)
	}
}

// postView POSTs a forged view to n's gossip route.
func postView(t *testing.T, n *Node, v View) {
	t.Helper()
	body, _ := json.Marshal(v)
	resp, err := http.Post(n.Self()+GossipPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forged view: HTTP %d", resp.StatusCode)
	}
}

// TestChangeSpreadsWithoutHeartbeat: with the heartbeat an hour away, a
// join through the seed reaches the third member, a death reaches every
// other member, and the dead member's refutation brings it back
// everywhere — each by the push its change wakes, within a second.
func TestChangeSpreadsWithoutHeartbeat(t *testing.T) {
	nodes := threeStarted(t)
	a, b := nodes[0], nodes[1]
	var inc int64
	for _, m := range a.MemberEntries() {
		if m.Addr == b.Self() {
			inc = m.Incarnation
		}
	}
	dead := View{From: "http://127.0.0.1:1", Members: []Member{{Addr: b.Self(), Incarnation: inc, Status: StatusDead}}}

	// A hears B is dead: A's active set shrinks, and its push tells C.
	postView(t, a, dead)
	within(t, time.Second, "B dropped by A and C", func() bool {
		return activeEverywhere([]*Node{a, nodes[2]}, 2, "")
	})
	// B hears the same rumour and refutes; its push outranks the rumour.
	postView(t, b, dead)
	within(t, time.Second, "B's refutation in every view", func() bool {
		return activeEverywhere(nodes, 3, b.Self())
	})
}

// TestConvergedClusterGoesQuiet: a push that changes nothing wakes nobody,
// so once the views agree the gossip handlers see no traffic until the
// next heartbeat.
func TestConvergedClusterGoesQuiet(t *testing.T) {
	nodes := threeStarted(t)
	before := totalPosts(nodes)
	time.Sleep(300 * time.Millisecond)
	if after := totalPosts(nodes); after != before {
		t.Errorf("a converged cluster served %d gossip POSTs in 300 ms, want 0", after-before)
	}
}
