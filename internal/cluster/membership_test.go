package cluster_test

// Fake-clock membership tests: nodes are joined and stepped by hand
// (export_test.go) over one shared cache directory whose lease clock is
// the same fake, so lease expiry and readmission happen at exact,
// explicit instants — no sleeps, no timing flake.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/diskcache"
	"repro/internal/faults"
	"repro/internal/server"
)

// fakeClock is a mutable time source implementing cluster.Clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func (f *fakeClock) Set(t time.Time) {
	f.mu.Lock()
	f.t = t
	f.mu.Unlock()
}

// manualNodes builds one node per ID over dir, with node and cache
// clocks both clk, then joins each at http://<id> without starting the
// control loop. All caches are opened before the first join: an Open
// sweeps leases it judges expired, and it judges by the wall clock.
func manualNodes(t testing.TB, dir string, clk *fakeClock, ids ...string) []*cluster.Node {
	t.Helper()
	var nodes []*cluster.Node
	for _, id := range ids {
		srv, err := server.New(server.Config{Seed: 1, CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		srv.Disk().SetClock(clk.Now)
		n, err := cluster.NewNode(cluster.Config{ID: id, Server: srv, Clock: clk, Heartbeat: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	for i, n := range nodes {
		if err := n.Join("http://" + ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	return nodes
}

func memberIDs(v cluster.View) string {
	s := ""
	for i, m := range v.Members {
		if i > 0 {
			s += ","
		}
		s += m.ID
	}
	return s
}

// TestDetectorEvictsOnFakeClock drives lease expiry — the cluster's only
// failure detector — across its exact boundary: a member silent for just
// under SuspectAfter survives, one silent for SuspectAfter is gone with an
// epoch bump, and renewing again readmits it strictly past that epoch.
func TestDetectorEvictsOnFakeClock(t *testing.T) {
	clk := newFakeClock()
	dir := t.TempDir()
	nodes := manualNodes(t, dir, clk, "m1", "m2")
	n1, n2 := nodes[0], nodes[1]
	n1.Step()
	v := n1.View()
	if memberIDs(v) != "m1,m2" {
		t.Fatalf("view after both joined: %+v", v)
	}
	ttl := 2 * time.Second // SuspectAfter: 2×Heartbeat

	// Just inside the window: still in, same epoch.
	clk.Advance(ttl / 2)
	n1.Step() // m1 renews; m2 stays silent from here on
	clk.Advance(ttl/2 - time.Millisecond)
	n1.Step()
	if got := n1.View(); got.Epoch != v.Epoch || memberIDs(got) != "m1,m2" {
		t.Fatalf("member evicted before SuspectAfter: %+v (was %+v)", got, v)
	}

	// At SuspectAfter: out, epoch bumped.
	clk.Advance(time.Millisecond)
	n1.Step()
	evicted := n1.View()
	if memberIDs(evicted) != "m1" || evicted.Epoch != v.Epoch+1 {
		t.Fatalf("eviction at SuspectAfter: %+v (was %+v)", evicted, v)
	}
	if got := n1.Metrics().MembersLeft; got != 1 {
		t.Fatalf("members_left = %d, want 1", got)
	}

	// The silent member renews its lapsed lease: readmitted at a higher
	// epoch, and both nodes read the same view.
	n2.Step()
	n1.Step()
	back := n1.View()
	if memberIDs(back) != "m1,m2" || back.Epoch <= evicted.Epoch {
		t.Fatalf("readmission: %+v after eviction %+v", back, evicted)
	}
	if got := n2.View(); got.Epoch != back.Epoch || memberIDs(got) != memberIDs(back) {
		t.Fatalf("nodes disagree on epoch %d: %+v vs %+v", back.Epoch, got, back)
	}
}

// TestPromoteDemoteLifecycleDeterministic walks one member through the
// lost-lease lifecycle on a fake clock. While its renewals fail it keeps
// itself in the view it routes by only until its lease's TTL runs out;
// from then on it demotes itself to a forwarder, exactly when the others
// drop it. A renewal promotes it back to owner, at a higher epoch. A rival
// that takes over its member ID after expiry makes the next renewal fail
// with a lost lease; the node stays demoted until the rival's lease
// lapses and it can take the lease back.
func TestPromoteDemoteLifecycleDeterministic(t *testing.T) {
	clk := newFakeClock()
	dir := t.TempDir()
	nodes := manualNodes(t, dir, clk, "m1", "m2")
	n1, n2 := nodes[0], nodes[1]
	n1.Step()
	ttl := 2 * time.Second
	owns := func(n *cluster.Node, id string) bool {
		for _, m := range n.RouteView().Members {
			if m.ID == id {
				return true
			}
		}
		return false
	}

	restore := faults.Activate(faults.New().Enable("cluster-renew", "m2", faults.Rule{Kind: faults.Error}))
	clk.Advance(ttl - time.Millisecond)
	n1.Step()
	n2.Step()
	if !owns(n2, "m2") || !n2.Metrics().LeaseHeld {
		t.Fatalf("demoted inside the TTL: %+v", n2.Metrics())
	}
	clk.Advance(time.Millisecond)
	if owns(n2, "m2") || n2.Metrics().LeaseHeld {
		t.Fatalf("unrenewable lease past its TTL still routes as owner: %+v", n2.Metrics())
	}
	n1.Step()
	if got := memberIDs(n1.View()); got != "m1" {
		t.Fatalf("m1 still sees the unrenewed member: %s", got)
	}
	demoted := n1.View().Epoch
	restore()

	n2.Step()
	if !owns(n2, "m2") || n2.View().Epoch <= demoted {
		t.Fatalf("renewal did not promote back past epoch %d: %+v", demoted, n2.View())
	}

	// A rival takes m2's expired lease under another address.
	clk.Advance(ttl)
	rival, err := diskcache.Open(dir, diskcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rival.SetClock(clk.Now)
	if _, err := rival.AcquireLease(cluster.MemberLeasePrefix+"m2", "http://impostor", ttl); err != nil {
		t.Fatal(err)
	}
	n2.Step()
	if m := n2.Metrics(); owns(n2, "m2") || m.LeaseHeld || m.RenewFailed != 1 {
		t.Fatalf("lost lease did not demote: %+v", m)
	}
	n2.Step() // re-acquire refused while the rival holds the lease
	if m := n2.Metrics(); m.LeaseHeld || m.RenewFailed != 2 {
		t.Fatalf("re-acquired a live rival lease: %+v", m)
	}
	clk.Advance(ttl)
	n2.Step()
	if m := n2.Metrics(); !owns(n2, "m2") || !m.LeaseHeld {
		t.Fatalf("never took its lease back after the rival lapsed: %+v", m)
	}
}

// TestFailoverFaultStages exercises the renewal fault stage partition
// experiments use: a "cluster-renew" fault drops one renewal and counts
// it without touching the lease; once spent, the same step renews.
func TestFailoverFaultStages(t *testing.T) {
	clk := newFakeClock()
	n := manualNodes(t, t.TempDir(), clk, "m1")[0]
	restore := faults.Activate(faults.New().
		Enable("cluster-renew", "m1", faults.Rule{Kind: faults.Error, Count: 1}))
	defer restore()

	clk.Advance(time.Second)
	n.Step()
	if m := n.Metrics(); m.RenewDropped != 1 || m.LeaseRenewals != 0 {
		t.Fatalf("dropped renewal miscounted: %+v", m)
	}
	clk.Advance(time.Second) // a full TTL since the join: lapsed
	if n.Metrics().LeaseHeld {
		t.Fatal("lease still fresh a TTL after the last renewal")
	}
	n.Step()
	if m := n.Metrics(); m.LeaseRenewals != 1 || !m.LeaseHeld {
		t.Fatalf("post-fault renewal never happened: %+v", m)
	}
}

// TestDuplicateMemberIDRefused: a second process claiming a live member's
// ID at another address is refused at start instead of sharing its view
// slot.
func TestDuplicateMemberIDRefused(t *testing.T) {
	clk := newFakeClock()
	dir := t.TempDir()
	srv, err := server.New(server.Config{Seed: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv.Disk().SetClock(clk.Now)
	dup, err := cluster.NewNode(cluster.Config{ID: "m1", Server: srv, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	manualNodes(t, dir, clk, "m1")
	if err := dup.Join("http://elsewhere"); !errors.Is(err, diskcache.ErrLeaseHeld) {
		t.Fatalf("second node claiming live member ID m1: %v", err)
	}
}
