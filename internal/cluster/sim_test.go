package cluster_test

// Deterministic membership simulation, in the spirit of Plankton's
// exhaustive exploration: real nodes over one shared cache directory, on
// one fake clock, stepped by hand. A depth-first search applies every
// enabled action — kill, pause, heal, tick, lease-expire — in every order
// up to a bounded depth, saving and restoring the directory, the clock
// and every node's membership state between branches, and skipping
// states it has already explored at least as deep. After every action it
// checks the membership invariants: one member set per epoch, epochs that
// never decrease, one self-believed owner per snapshot per epoch — and
// no self-believed owner without a live lease.

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

const (
	simAlive = iota
	simPaused
	simKilled
)

// simState is one point of the search: everything an action reads or a
// later check compares against.
type simState struct {
	now    time.Time
	status []int
	nodes  []cluster.NodeState
	files  map[string]string // cache directory contents, minus the flock file
	sets   map[int64]string  // epoch → the member set any node saw at it
	owners map[string]string // "epoch/snapshot" → the node that believed it owned it
	epochs []int64           // each node's view epoch
	path   []string          // actions from the initial state, for failure reports
}

type sim struct {
	t     *testing.T
	dir   string
	clk   *fakeClock
	ttl   time.Duration
	ids   []string
	nodes []*cluster.Node
	names []string          // snapshot names whose ownership is checked
	disk  map[string]string // directory contents as last written or read

	seen        map[string]int // state key → remaining depth explored from it
	transitions int
}

func newSim(t *testing.T, members int) (*sim, simState) {
	s := &sim{t: t, dir: t.TempDir(), clk: newFakeClock(), ttl: 2 * time.Second, seen: make(map[string]int)}
	for i := 0; i < members; i++ {
		s.ids = append(s.ids, fmt.Sprintf("m%d", i+1))
	}
	s.nodes = manualNodes(t, s.dir, s.clk, s.ids...)
	for i := 0; i < 16; i++ {
		s.names = append(s.names, fmt.Sprintf("snap%02d", i))
	}
	s.disk = s.readDir()
	init := simState{status: make([]int, members), sets: map[int64]string{}, owners: map[string]string{},
		epochs: make([]int64, members)}
	return s, s.capture(init, "join")
}

// readDir returns every file under the cache directory but its flock.
func (s *sim) readDir() map[string]string {
	files := make(map[string]string)
	err := filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() == "lock" {
			return err
		}
		b, err := os.ReadFile(path)
		files[path] = string(b)
		return err
	})
	if err != nil {
		s.t.Fatal(err)
	}
	return files
}

// restore reinstates a state: clock, node states, directory contents.
func (s *sim) restore(st simState) {
	s.clk.Set(st.now)
	for i, n := range s.nodes {
		n.RestoreState(st.nodes[i])
	}
	for path := range s.disk {
		if _, ok := st.files[path]; !ok {
			if err := os.Remove(path); err != nil {
				s.t.Fatal(err)
			}
		}
	}
	for path, body := range st.files {
		if cur, ok := s.disk[path]; ok && cur == body {
			continue
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			s.t.Fatal(err)
		}
	}
	s.disk = st.files
}

// capture records the state after an action and checks the invariants
// against the state before it.
func (s *sim) capture(prev simState, action string) simState {
	st := simState{
		now:    s.clk.Now(),
		status: prev.status,
		nodes:  make([]cluster.NodeState, len(s.nodes)),
		sets:   prev.sets,
		owners: prev.owners,
		epochs: make([]int64, len(s.nodes)),
		path:   append(append([]string(nil), prev.path...), action),
	}
	s.disk = s.readDir()
	st.files = s.disk
	fail := func(format string, args ...any) {
		s.t.Helper()
		s.t.Fatalf("after %s: %s", strings.Join(st.path, " → "), fmt.Sprintf(format, args...))
	}
	copied := false
	cow := func() {
		if !copied {
			st.sets, st.owners, copied = cloneMap(st.sets), cloneMap(st.owners), true
		}
	}
	for i, n := range s.nodes {
		st.nodes[i] = n.SaveState()
		v := n.View()
		st.epochs[i] = v.Epoch
		// Invariant 2: a node's epoch never decreases.
		if v.Epoch < prev.epochs[i] {
			fail("%s epoch went from %d back to %d", s.ids[i], prev.epochs[i], v.Epoch)
		}
		// Invariant 1: at most one member set per epoch, across all nodes
		// and all time.
		set := memberIDs(v)
		if was, ok := st.sets[v.Epoch]; ok && was != set {
			fail("epoch %d names both {%s} and {%s} (%s)", v.Epoch, was, set, s.ids[i])
		} else if !ok {
			cow()
			st.sets[v.Epoch] = set
		}
		// Invariant 3: at most one self-believed owner per snapshot per
		// epoch. A paused node still serves requests, so it counts; a
		// killed one does not.
		if st.status[i] == simKilled {
			continue
		}
		rv := n.RouteView()
		for _, name := range s.names {
			if cluster.OwnerOf(rv.Members, name).ID != s.ids[i] {
				continue
			}
			// A node without a live lease must not serve as owner: the
			// others may already have dropped it from their views.
			if !s.leaseLive(st, i) {
				fail("%s believes it owns %s at epoch %d without a live lease", s.ids[i], name, rv.Epoch)
			}
			k := fmt.Sprintf("%d/%s", rv.Epoch, name)
			if was, ok := st.owners[k]; ok && was != s.ids[i] {
				fail("%s believed owned by both %s and %s at epoch %d", name, was, s.ids[i], rv.Epoch)
			} else if !ok {
				cow()
				st.owners[k] = s.ids[i]
			}
		}
	}
	return st
}

// leaseFile is the part of a diskcache lease file the simulation reads.
type leaseFile struct {
	Owner   string `json:"owner"`
	Expires int64  `json:"expires_unix_nano"`
}

// leaseLive reports whether node i's member lease file is unexpired.
func (s *sim) leaseLive(st simState, i int) bool {
	name := hex.EncodeToString([]byte(cluster.MemberLeasePrefix+s.ids[i])) + ".lease"
	for path, body := range st.files {
		if filepath.Base(path) != name {
			continue
		}
		var rec leaseFile
		return json.Unmarshal([]byte(body), &rec) == nil && rec.Owner == "http://"+s.ids[i] &&
			st.now.UnixNano() < rec.Expires
	}
	return false
}

func cloneMap[K comparable, V any](m map[K]V) map[K]V {
	out := make(map[K]V, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// key canonicalizes a state for deduplication. Times enter only relative
// to the clock — a lease is live or lapsed — so states that differ only
// by how often the clock jumped collapse into one.
func (s *sim) key(st simState) string {
	var b strings.Builder
	for i, n := range s.nodes {
		m := n.Metrics()
		fmt.Fprintf(&b, "%d:%d:%s:%v|", st.status[i], st.epochs[i], memberIDs(n.View()), m.LeaseHeld)
	}
	paths := make([]string, 0, len(st.files))
	for p := range st.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		body := st.files[p]
		var rec leaseFile
		if strings.HasSuffix(p, ".lease") && json.Unmarshal([]byte(body), &rec) == nil {
			body = fmt.Sprintf("%s live=%v", rec.Owner, st.now.UnixNano() < rec.Expires)
		}
		fmt.Fprintf(&b, "%s=%s|", filepath.Base(p), body)
	}
	epochs := make([]int64, 0, len(st.sets))
	for e := range st.sets {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	for _, e := range epochs {
		fmt.Fprintf(&b, "%d{%s}", e, st.sets[e])
	}
	claims := make([]string, 0, len(st.owners))
	for k := range st.owners {
		claims = append(claims, k)
	}
	sort.Strings(claims)
	for _, k := range claims {
		fmt.Fprintf(&b, "%s>%s,", k, st.owners[k])
	}
	return b.String()
}

// explore applies every enabled action to st and recurses to depth.
func (s *sim) explore(st simState, depth int) {
	if depth == 0 {
		return
	}
	type action struct {
		name string
		node int // -1: global
		kind string
	}
	var acts []action
	for i, status := range st.status {
		switch status {
		case simAlive:
			acts = append(acts, action{"tick " + s.ids[i], i, "tick"},
				action{"pause " + s.ids[i], i, "pause"}, action{"kill " + s.ids[i], i, "kill"})
		case simPaused:
			acts = append(acts, action{"heal " + s.ids[i], i, "heal"}, action{"kill " + s.ids[i], i, "kill"})
		}
	}
	acts = append(acts, action{"lease-expire", -1, "expire"})
	for _, a := range acts {
		s.restore(st)
		pre := st
		switch a.kind {
		case "tick":
			s.nodes[a.node].Step()
		case "pause", "heal", "kill":
			status := append([]int(nil), st.status...)
			status[a.node] = map[string]int{"pause": simPaused, "heal": simAlive, "kill": simKilled}[a.kind]
			pre.status = status
		case "expire":
			s.clk.Advance(s.ttl)
		}
		s.transitions++
		next := s.capture(pre, a.name)
		k := s.key(next)
		if d, ok := s.seen[k]; ok && d >= depth-1 {
			continue
		}
		s.seen[k] = depth - 1
		s.explore(next, depth-1)
	}
}

// TestMembershipSimulation explores every interleaving of {kill, pause,
// heal, tick, lease-expire} over 3 nodes to depth 5 and over 4 nodes to
// depth 4, checking after every action that no
// epoch names two member sets, that no node's epoch decreases, that no
// two nodes believe they own the same snapshot at the same epoch, and
// that no node believes it owns anything without a live lease.
func TestMembershipSimulation(t *testing.T) {
	for _, tc := range []struct{ members, depth int }{{3, 5}, {4, 4}} {
		t.Run(fmt.Sprintf("%d-nodes-depth-%d", tc.members, tc.depth), func(t *testing.T) {
			s, init := newSim(t, tc.members)
			s.explore(init, tc.depth)
			t.Logf("%d transitions, %d distinct states", s.transitions, len(s.seen))
			if len(s.seen) < 100 {
				t.Fatalf("only %d states explored; the search is vacuous", len(s.seen))
			}
		})
	}
}
