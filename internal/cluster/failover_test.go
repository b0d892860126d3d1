package cluster_test

// End-to-end failover and membership-authority tests over real HTTP
// listeners. These run in tier-1 (no race tag) on the small fabric with
// test-fast heartbeats; the 204-device versions live in the chaos suite.

import (
	"fmt"
	"maps"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/diskcache"
	"repro/internal/server"
)

// TestSeedMemberFailoverEndToEnd kills the first-started member of a
// 3-member cluster, which also owns a snapshot. Both survivors must agree
// on one 2-member view at a strictly higher epoch, questions for the dead
// member's snapshot must keep answering identically (the heir rehydrates
// warm), and a latecomer needs nothing but the shared directory to join.
func TestSeedMemberFailoverEndToEnd(t *testing.T) {
	texts := smallFabric("cf")
	dir := t.TempDir()
	hb := 50 * time.Millisecond
	n1 := startNode(t, "m1", server.Config{CacheDir: dir}, fastCfg(hb))
	n2 := startNode(t, "m2", server.Config{CacheDir: dir, Seed: 2}, fastCfg(hb))
	n3 := startNode(t, "m3", server.Config{CacheDir: dir, Seed: 3}, fastCfg(hb))
	v := waitMembers(t, n1, 3, 2*time.Second)
	epoch0 := v.Epoch

	// A snapshot owned by the seed member, falling over to m3.
	name := ownedBy(t, v.Members, "m1", "m3")
	c := n2.ts.Client()
	resp, body := doJSON(t, c, http.MethodPut, n2.ts.URL+"/snapshots/"+name,
		map[string]any{"configs": texts}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load: %d %v", resp.StatusCode, body)
	}
	q := "/reachability?" + srcQuery(texts)
	_, warm := doJSON(t, c, http.MethodGet, n2.ts.URL+"/snapshots/"+name+q, nil, nil)
	want, _ := warm["text"].(string)
	if want == "" {
		t.Fatalf("warm answer empty: %v", warm)
	}

	// Kill the seed member: sever connections, stop its loop.
	n1.ts.Listener.Close()
	n1.ts.CloseClientConnections()
	n1.n.Kill()

	// Both survivors converge on one view without it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		v2, v3 := n2.n.View(), n3.n.View()
		if len(v2.Members) == 2 && v2.Epoch == v3.Epoch {
			v = v2
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors never agreed: m2=%+v m3=%+v", v2, v3)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v.Epoch <= epoch0 {
		t.Fatalf("epoch did not advance across failover: %d <= %d", v.Epoch, epoch0)
	}
	for _, m := range v.Members {
		if m.ID == "m1" {
			t.Fatalf("dead member still in the view: %+v", v)
		}
	}
	for _, nd := range []*testNode{n2, n3} {
		if m := nd.n.Metrics(); !m.LeaseHeld || m.MembersLeft == 0 {
			t.Fatalf("%s after failover: %+v", nd.id, m)
		}
	}

	// The dead member's snapshot keeps answering identically: the heir
	// rehydrates it warm from the shared cache.
	_, after := doJSON(t, c, http.MethodGet, n2.ts.URL+"/snapshots/"+name+q, nil, nil)
	if after["text"] != want {
		t.Fatalf("post-failover answer differs:\n--- got ---\n%v\n--- want ---\n%s", after["text"], want)
	}
	if r := n3.n.Metrics().Rehydrations; r != 1 {
		t.Fatalf("heir rehydrations = %d, want 1", r)
	}
	if d := n3.srv.Metrics().Disk; d.Hits == 0 {
		t.Fatalf("heir rebuilt cold (no shared-cache hits): %+v", d)
	}

	// A latecomer joins through the directory alone.
	n4 := startNode(t, "m4", server.Config{CacheDir: dir, Seed: 4}, fastCfg(hb))
	waitMembers(t, n4, 3, 2*time.Second)
	waitMembers(t, n2, 3, 2*time.Second)
}

// TestSplitCacheDirsAreSeparateAuthorities is the split-brain regression:
// 3 members that do NOT share a cache directory, then the first-started
// one is killed. Each directory is its own membership authority, so every
// view may name only the members whose leases live in that node's
// directory — here, the node itself — and no directory's epoch may ever
// name two different memberships, before or after the kill.
func TestSplitCacheDirsAreSeparateAuthorities(t *testing.T) {
	hb := 25 * time.Millisecond
	var nodes []*testNode
	var dirs []*diskcache.Cache
	for i := 1; i <= 3; i++ {
		dir := t.TempDir()
		nodes = append(nodes, startNode(t, fmt.Sprintf("m%d", i),
			server.Config{CacheDir: dir, Seed: int64(i)}, fastCfg(hb)))
		d, err := diskcache.Open(dir, diskcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, d)
	}
	named := make([]map[int64]string, len(nodes)) // per directory: epoch → membership
	for i := range named {
		named[i] = make(map[int64]string)
	}
	check := func(alive []int) {
		t.Helper()
		for _, i := range alive {
			nd := nodes[i]
			v := nd.n.View()
			_, holders, err := dirs[i].LiveLeases(cluster.MemberLeasePrefix)
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[string]string, len(v.Members))
			var key []string
			for _, m := range v.Members {
				got[m.ID] = m.Addr
				key = append(key, m.ID+"="+m.Addr)
			}
			if !maps.Equal(got, holders) || len(got) != 1 || got[nd.id] != nd.ts.URL {
				t.Fatalf("%s view %+v names members outside its directory's leases %v", nd.id, v, holders)
			}
			if prev, ok := named[i][v.Epoch]; ok && prev != strings.Join(key, ",") {
				t.Fatalf("%s directory epoch %d names both {%s} and {%s}", nd.id, v.Epoch, prev, strings.Join(key, ","))
			}
			named[i][v.Epoch] = strings.Join(key, ",")
		}
	}
	for end := time.Now().Add(10 * hb); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		check([]int{0, 1, 2})
	}

	nodes[0].ts.Listener.Close()
	nodes[0].ts.CloseClientConnections()
	nodes[0].n.Kill()
	for end := time.Now().Add(2 * time.Second); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		check([]int{1, 2})
	}
	for _, nd := range nodes[1:] {
		if m := nd.n.Metrics(); !m.LeaseHeld || m.Members != 1 || m.MembersLeft != 0 {
			t.Fatalf("%s after the kill: %+v", nd.id, m)
		}
	}
}

// TestNewNodeRequiresDiskCache: without a disk cache there is no
// membership authority, so a node is refused at construction.
func TestNewNodeRequiresDiskCache(t *testing.T) {
	srv, err := server.New(server.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cluster.NewNode(cluster.Config{ID: "m1", Server: srv})
	if err == nil || !strings.Contains(err.Error(), "disk cache") {
		t.Fatalf("NewNode without a disk cache: err = %v", err)
	}
}
