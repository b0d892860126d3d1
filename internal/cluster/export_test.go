package cluster

import (
	"time"

	"repro/internal/diskcache"
)

// Test hooks. The membership tests in package cluster_test drive a
// node's control step by hand on a fake clock, instead of through
// runLoop's ticker, and the simulation saves and restores node state
// between the branches of its search.

// MemberLeasePrefix prefixes the member lease names in the directory.
const MemberLeasePrefix = memberLeasePrefix

// Join takes the node's member lease and reads its first view without
// starting the control loop.
func (n *Node) Join(addr string) error { return n.join(addr) }

// Step runs one control step: renew the member lease, re-read the view.
func (n *Node) Step() { n.step() }

// RouteView returns the view the node routes by.
func (n *Node) RouteView() View { return n.routeView() }

// NodeState is a node's membership state.
type NodeState struct {
	view      View
	lease     *diskcache.Lease
	lastRenew time.Time
}

// SaveState captures the node's membership state.
func (n *Node) SaveState() NodeState {
	n.mu.Lock()
	defer n.mu.Unlock()
	return NodeState{view: n.view.clone(), lease: n.lease, lastRenew: n.lastRenew}
}

// RestoreState reinstates a state captured by SaveState.
func (n *Node) RestoreState(s NodeState) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.view, n.lease, n.lastRenew = s.view.clone(), s.lease, s.lastRenew
}
