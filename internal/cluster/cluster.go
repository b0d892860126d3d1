// Package cluster turns independent batfishd servers into one service.
// Every member opens the same disk cache directory, and that directory is
// the only membership authority: each member holds a renewable lease
// there carrying its advertised address, the view is the sorted set of
// live member leases, and its epoch is a generation counter the directory
// keeps with the set it names (membership.go). Snapshots are owned by
// rendezvous hashing over the view, every node computes ownership
// locally, and requests for snapshots a node does not own are forwarded
// transparently to the owning member. When a member dies its lease
// lapses, the next read of the directory drops it at a higher epoch, and
// ownership of its snapshots moves deterministically to the survivors,
// which rehydrate them from manifests in the same directory — warm-
// starting from the dead member's parse and dataplane artifacts instead
// of recomputing them.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diskcache"
	"repro/internal/server"
)

// HopHeader marks a request as already forwarded once (request side) and
// names the relaying member (response side). The hop limit is 1: a node
// receiving a forwarded request for a snapshot it does not own answers
// 502 instead of forwarding again, so divergent views can never loop a
// request around the cluster.
const HopHeader = "X-Batfish-Forwarded-By"

// maxBody bounds buffered request bodies, mirroring the server's limit.
const maxBody = 64 << 20

// Member is one node's identity in the cluster view.
type Member struct {
	ID   string `json:"id"`
	Addr string `json:"addr"` // base URL, e.g. http://10.0.0.7:7071
}

// View is the membership at one epoch: the live member leases in the
// shared cache directory, sorted by ID, and the generation the directory
// assigned that set. An epoch never names two different member sets, so
// forwarders can wait for "a view newer than the one that failed me".
type View struct {
	Epoch   int64    `json:"epoch"`
	Members []Member `json:"members"`
}

// clone returns a deep copy safe to hand out without holding locks.
func (v View) clone() View {
	out := View{Epoch: v.Epoch, Members: make([]Member, len(v.Members))}
	copy(out.Members, v.Members)
	return out
}

// Config configures one cluster node.
type Config struct {
	// ID is the member's stable identity (hash input for ownership).
	ID string
	// Server is the wrapped analysis server. It must have a disk cache
	// (server.Config.CacheDir): the cache directory, shared by every
	// member, holds the membership leases.
	Server *server.Server
	// Heartbeat paces the control loop, which renews this node's member
	// lease and re-reads the view every Heartbeat/2 (default 1s).
	Heartbeat time.Duration
	// SuspectAfter is the member lease's TTL: how long a member may go
	// unrenewed before it drops out of every view (default 2×Heartbeat —
	// "failover within two heartbeat intervals").
	SuspectAfter time.Duration
	// FailoverWait bounds how long a forwarder waits for a view change
	// after the owner stops answering (default SuspectAfter+2×Heartbeat:
	// the lease needs SuspectAfter to lapse, plus slack for the next
	// directory read).
	FailoverWait time.Duration
	// ForwardRetries is how many times a forwarder re-resolves the owner
	// after a transport failure before giving up with 502 (default 2).
	ForwardRetries int
	// Client performs forwarded and cluster-internal requests (default: a
	// dedicated client; the shared http.DefaultClient is never mutated).
	Client *http.Client
	// Logf, when set, receives membership and failover events.
	Logf func(format string, args ...any)
	// Clock is the node's time source (default: the wall clock). Tests
	// inject a fake, shared with the disk cache's SetClock, to drive
	// lease expiry and failover without sleeping.
	Clock Clock
}

func (c *Config) defaults() error {
	if c.ID == "" {
		return fmt.Errorf("cluster: config needs a member ID")
	}
	if c.Server == nil {
		return fmt.Errorf("cluster: config needs a server")
	}
	if c.Server.Disk() == nil {
		return fmt.Errorf("cluster: member %s needs a disk cache: the shared cache directory is the membership authority", c.ID)
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 2 * c.Heartbeat
	}
	if c.FailoverWait <= 0 {
		c.FailoverWait = c.SuspectAfter + 2*c.Heartbeat
	}
	if c.ForwardRetries == 0 {
		c.ForwardRetries = 2
	}
	if c.ForwardRetries < 0 {
		c.ForwardRetries = 0
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Clock == nil {
		c.Clock = systemClock{}
	}
	return nil
}

// Node is one cluster member wrapping a server.Server. Construct with
// NewNode, wire Handler into a listener, then Start.
type Node struct {
	cfg   Config
	inner *server.Server
	disk  *diskcache.Cache
	mux   *http.ServeMux

	mu        sync.Mutex
	addr      string // advertised base URL, the member lease's owner
	view      View
	lease     *diskcache.Lease // this node's member lease (nil before Start, after Drain or loss)
	lastRenew time.Time        // start of the last successful acquire/renew
	draining  bool

	stop     chan struct{}
	stopOnce sync.Once
	loops    sync.WaitGroup

	m nodeCounters
}

// NewNode builds a node around the given server and registers the
// cluster metrics hook. It refuses a server without a disk cache. The
// node is inert until Start.
func NewNode(cfg Config) (*Node, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:   cfg,
		inner: cfg.Server,
		disk:  cfg.Server.Disk(),
		mux:   http.NewServeMux(),
		stop:  make(chan struct{}),
	}
	n.routes()
	n.inner.SetClusterMetrics(func() any { return n.Metrics() })
	return n, nil
}

// Handler serves the node's full surface: the wrapped server's API with
// ownership routing, plus the /cluster/* endpoints.
func (n *Node) Handler() http.Handler { return n.mux }

// Start brings the node online: it takes its member lease in the shared
// cache directory, advertising advertiseAddr (the base URL other members
// reach it at), reads the first view, and starts the control loop. It
// fails if a live lease for this member ID is held at another address.
// The loop stops when ctx is cancelled, Kill is called, or Drain
// completes.
func (n *Node) Start(ctx context.Context, advertiseAddr string) error {
	if err := n.join(advertiseAddr); err != nil {
		return err
	}
	n.loops.Add(1)
	go n.runLoop(ctx)
	v := n.View()
	n.cfg.Logf("cluster: %s joined at %s (epoch %d, %d members)", n.cfg.ID, advertiseAddr, v.Epoch, len(v.Members))
	return nil
}

// Kill stops the node's control loop without releasing its lease or
// draining — the crash path (tests pair it with closing the listener).
// The lease lapses after SuspectAfter and the survivors' next directory
// read drops the node.
func (n *Node) Kill() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.loops.Wait()
}

// Drain takes the node out of service gracefully: stop the control loop,
// release the member lease (so the survivors' next directory read hands
// its snapshots to the heirs, which rehydrate from the shared cache),
// then drain the wrapped server — new work is rejected with 503,
// in-flight work finishes (bounded by ctx).
func (n *Node) Drain(ctx context.Context) error {
	n.mu.Lock()
	already := n.draining
	n.draining = true
	n.mu.Unlock()
	if !already {
		n.stopOnce.Do(func() { close(n.stop) })
		n.loops.Wait()
		n.mu.Lock()
		lease := n.lease
		n.lease = nil
		n.mu.Unlock()
		n.releaseLease(lease, "member")
		n.cfg.Logf("cluster: %s released its member lease", n.cfg.ID)
	}
	return n.inner.Drain(ctx)
}

// View returns the node's current membership view.
func (n *Node) View() View {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.view.clone()
}

// nodeCounters is the node's hot-path instrumentation.
type nodeCounters struct {
	forwarded      atomic.Int64
	forwardRetries atomic.Int64
	forwardLoops   atomic.Int64
	forwardFailed  atomic.Int64
	relayed429     atomic.Int64
	relayed503     atomic.Int64
	renewals       atomic.Int64
	renewFailed    atomic.Int64
	renewDropped   atomic.Int64
	membersLeft    atomic.Int64
	rehydrations   atomic.Int64
	manifestPuts   atomic.Int64
	sweepClassesIn atomic.Int64
	sweepFallback  atomic.Int64
}
