package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"time"

	"repro/internal/diskcache"
	"repro/internal/faults"
)

// Membership has one authority: the shared cache directory. Each node
// holds a renewable lease cluster/member/<id> whose owner is its
// advertised address, renewed every Heartbeat/2 with TTL SuspectAfter. A
// node's view is the sorted set of live member leases, and its epoch is
// the generation diskcache.LiveLeases stores next to the leases together
// with the set it names, rewritten under the exclusive directory flock
// only when the live set changes. So epochs only increase and no epoch
// ever names two memberships, whichever node reads the directory first.
//
// Every membership event is a lease event. A crashed member stops
// renewing and the first read after its expiry drops it; a drained
// member releases its lease; a partitioned member that renews again is
// readmitted at a higher epoch. A node that cannot renew its own lease
// within the TTL leaves itself out of the view it routes by (routeView),
// so it forwards instead of serving as an owner the others may already
// have replaced.

// memberLeasePrefix prefixes every member lease name; the rest is the ID.
const memberLeasePrefix = "cluster/member/"

// leaseTTL is the member lease's time-to-live: the suspicion window.
func (n *Node) leaseTTL() time.Duration { return n.cfg.SuspectAfter }

// join takes this node's member lease and reads the first view.
func (n *Node) join(addr string) error {
	t0 := n.now()
	lease, err := n.disk.AcquireLease(memberLeasePrefix+n.cfg.ID, addr, n.leaseTTL())
	if err != nil {
		return fmt.Errorf("cluster: member lease for %s: %w", n.cfg.ID, err)
	}
	n.mu.Lock()
	n.addr, n.lease, n.lastRenew = addr, lease, t0
	n.mu.Unlock()
	n.refreshView()
	return nil
}

// runLoop is the node's control loop: one step every half heartbeat.
func (n *Node) runLoop(ctx context.Context) {
	defer n.loops.Done()
	t := time.NewTicker(max(n.cfg.Heartbeat/2, time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-n.stop:
			return
		case <-t.C:
		}
		n.step()
	}
}

// step is one control step: renew the member lease, then re-read the
// view from the directory.
func (n *Node) step() {
	n.renew()
	n.refreshView()
}

// renew extends this node's member lease, re-acquiring it when it was
// lost. The start of a successful attempt becomes lastRenew: the lease's
// real expiry is never earlier than lastRenew+TTL, so routeView's
// self-check errs toward forwarding. The "cluster-renew" fault stage
// drops renewals for partition experiments — the others' views then lose
// this node even though it is still serving.
func (n *Node) renew() {
	if err := faults.FireErr("cluster-renew", n.cfg.ID); err != nil {
		n.m.renewDropped.Add(1)
		return
	}
	n.mu.Lock()
	lease, addr := n.lease, n.addr
	n.mu.Unlock()
	t0 := n.now()
	var err error
	if lease == nil {
		lease, err = n.disk.AcquireLease(memberLeasePrefix+n.cfg.ID, addr, n.leaseTTL())
	} else {
		err = lease.Renew(n.leaseTTL())
	}
	if err != nil {
		n.m.renewFailed.Add(1)
		if errors.Is(err, diskcache.ErrLeaseLost) {
			n.mu.Lock()
			n.lease = nil
			n.mu.Unlock()
		}
		n.cfg.Logf("cluster: %s renewing member lease: %v", n.cfg.ID, err)
		return
	}
	n.mu.Lock()
	n.lease, n.lastRenew = lease, t0
	n.mu.Unlock()
	n.m.renewals.Add(1)
}

// refreshView re-reads the live member leases and adopts the directory's
// view when it is newer. A failed read keeps the last view.
func (n *Node) refreshView() {
	gen, holders, err := n.disk.LiveLeases(memberLeasePrefix)
	if err != nil {
		n.cfg.Logf("cluster: %s reading the view: %v", n.cfg.ID, err)
		return
	}
	v := View{Epoch: gen, Members: make([]Member, 0, len(holders))}
	for id, addr := range holders {
		v.Members = append(v.Members, Member{ID: id, Addr: addr})
	}
	sort.Slice(v.Members, func(i, j int) bool { return v.Members[i].ID < v.Members[j].ID })
	n.mu.Lock()
	if v.Epoch <= n.view.Epoch {
		n.mu.Unlock()
		return
	}
	var left []string
	for _, m := range n.view.Members {
		if _, ok := holders[m.ID]; !ok {
			left = append(left, m.ID)
		}
	}
	n.view = v
	n.mu.Unlock()
	n.m.membersLeft.Add(int64(len(left)))
	for _, id := range left {
		n.cfg.Logf("cluster: %s sees member %s gone (epoch %d)", n.cfg.ID, id, v.Epoch)
	}
}

// leaseFreshLocked reports whether this node's lease is provably live:
// renewed less than one TTL ago. Callers hold n.mu.
func (n *Node) leaseFreshLocked() bool {
	return n.now().Before(n.lastRenew.Add(n.leaseTTL()))
}

// routeView is the view this node routes by: its directory view, minus
// itself once its own lease has gone unrenewed for a TTL. Such a node
// may already be gone from everyone else's view, so it must not serve as
// an owner; it forwards instead. A draining node keeps itself: the
// wrapped server sheds its requests with 503 + Retry-After, so it never
// answers alongside the heir.
func (n *Node) routeView() View {
	n.mu.Lock()
	defer n.mu.Unlock()
	v := n.view.clone()
	if !n.draining && !n.leaseFreshLocked() {
		v.Members = slices.DeleteFunc(v.Members, func(m Member) bool { return m.ID == n.cfg.ID })
	}
	return v
}

// releaseLease releases a lease and logs — rather than drops — a
// failure: a lease file that outlives its holder makes every future
// acquirer of that name wait out a TTL nobody is using. A nil lease is a
// no-op.
func (n *Node) releaseLease(lease *diskcache.Lease, what string) {
	if lease == nil {
		return
	}
	if err := lease.Release(); err != nil {
		n.cfg.Logf("cluster: %s releasing %s lease: %v", n.cfg.ID, what, err)
	}
}

// handleMembers returns this node's view.
func (n *Node) handleMembers(w http.ResponseWriter, r *http.Request) {
	writeViewJSON(w, n.View())
}

// handleClusterDrain drains this node (the HTTP twin of the SIGTERM
// path): lease release, then finish-in-flight, bounded by the request
// context.
func (n *Node) handleClusterDrain(w http.ResponseWriter, r *http.Request) {
	if err := n.Drain(r.Context()); err != nil {
		writeClusterError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeViewJSON(w, n.View())
}

func writeViewJSON(w http.ResponseWriter, v View) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client went away
}

func writeClusterError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg}) //nolint:errcheck
}
