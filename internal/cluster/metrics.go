package cluster

// Metrics is the node's point-in-time cluster view, embedded in the
// wrapped server's /metrics response under "cluster" (via
// server.SetClusterMetrics).
type Metrics struct {
	MemberID string `json:"member_id"`
	Epoch    int64  `json:"epoch"`
	Members  int    `json:"members"`
	Draining bool   `json:"draining"`
	// LeaseHeld reports whether this node's member lease is provably live
	// (renewed within its TTL) — when false it routes as a non-member.
	LeaseHeld bool `json:"lease_held"`

	Forwarded      int64 `json:"forwarded"`
	ForwardRetries int64 `json:"forward_retries"`
	ForwardLoops   int64 `json:"forward_loops"`
	ForwardFailed  int64 `json:"forward_failed"`
	Relayed429     int64 `json:"relayed_429"`
	Relayed503     int64 `json:"relayed_503"`
	LeaseRenewals  int64 `json:"lease_renewals"`
	RenewFailed    int64 `json:"renew_failed"`
	RenewDropped   int64 `json:"renew_dropped"`
	MembersLeft    int64 `json:"members_left"`
	Rehydrations   int64 `json:"rehydrations"`
	ManifestPuts   int64 `json:"manifest_puts"`
	SweepClassesIn int64 `json:"sweep_classes_in"`
	SweepFallback  int64 `json:"sweep_fallback"`
}

// Metrics snapshots the node's counters and membership state.
func (n *Node) Metrics() Metrics {
	n.mu.Lock()
	m := Metrics{
		MemberID:  n.cfg.ID,
		Epoch:     n.view.Epoch,
		Members:   len(n.view.Members),
		Draining:  n.draining,
		LeaseHeld: n.lease != nil && n.leaseFreshLocked(),
	}
	n.mu.Unlock()
	m.Forwarded = n.m.forwarded.Load()
	m.ForwardRetries = n.m.forwardRetries.Load()
	m.ForwardLoops = n.m.forwardLoops.Load()
	m.ForwardFailed = n.m.forwardFailed.Load()
	m.Relayed429 = n.m.relayed429.Load()
	m.Relayed503 = n.m.relayed503.Load()
	m.LeaseRenewals = n.m.renewals.Load()
	m.RenewFailed = n.m.renewFailed.Load()
	m.RenewDropped = n.m.renewDropped.Load()
	m.MembersLeft = n.m.membersLeft.Load()
	m.Rehydrations = n.m.rehydrations.Load()
	m.ManifestPuts = n.m.manifestPuts.Load()
	m.SweepClassesIn = n.m.sweepClassesIn.Load()
	m.SweepFallback = n.m.sweepFallback.Load()
	return m
}
