package fwdgraph_test

import (
	"context"
	"testing"

	"repro/internal/bdd"
	"repro/internal/config"
	"repro/internal/dataplane"
	"repro/internal/fwdgraph"
	"repro/internal/hdr"
	"repro/internal/reach"
	"repro/internal/testnet"
	"repro/internal/traceroute"
)

func testNets() map[string]*config.Network {
	return map[string]*config.Network{
		"line":     testnet.Line3(),
		"diamond":  testnet.Diamond(),
		"broken":   testnet.ECMPWithBrokenBranch(),
		"figure2":  testnet.Figure2(),
		"firewall": testnet.Firewall(),
	}
}

func run(t *testing.T, net *config.Network) *dataplane.Result {
	t.Helper()
	dp := dataplane.Run(net, dataplane.Options{})
	if !dp.Converged {
		t.Fatalf("dataplane did not converge: %v", dp.Warnings)
	}
	return dp
}

// checkIndex verifies that Out and In are exactly the edge list grouped by
// endpoint: every edge index appears once in Out[From], once in In[To],
// and nowhere else.
func checkIndex(t *testing.T, g *fwdgraph.Graph) {
	t.Helper()
	if len(g.Out) != len(g.Nodes) || len(g.In) != len(g.Nodes) {
		t.Fatalf("index sized %d/%d for %d nodes", len(g.Out), len(g.In), len(g.Nodes))
	}
	outSeen := make([]int, len(g.Edges))
	inSeen := make([]int, len(g.Edges))
	for n := range g.Nodes {
		for _, ei := range g.Out[n] {
			if g.Edges[ei].From != n {
				t.Errorf("edge %d listed in Out[%d] but leaves node %d", ei, n, g.Edges[ei].From)
			}
			outSeen[ei]++
		}
		for _, ei := range g.In[n] {
			if g.Edges[ei].To != n {
				t.Errorf("edge %d listed in In[%d] but enters node %d", ei, n, g.Edges[ei].To)
			}
			inSeen[ei]++
		}
	}
	for ei := range g.Edges {
		if outSeen[ei] != 1 || inSeen[ei] != 1 {
			t.Errorf("edge %d appears %d times in Out, %d times in In", ei, outSeen[ei], inSeen[ei])
		}
	}
}

func TestAdjacencyIndexesEveryEdgeOnce(t *testing.T) {
	for name, net := range testNets() {
		t.Run(name, func(t *testing.T) {
			g := fwdgraph.New(run(t, net))
			if len(g.Edges) == 0 {
				t.Fatal("empty graph")
			}
			checkIndex(t, g)
		})
	}
}

// TestCloneKeepsStructureAndAnswers checks that a clone keeps node ids,
// names and edge endpoints, and that the BDD engine over the clone still
// agrees with the concrete traceroute engine (paper §4.3.2) in both
// directions.
func TestCloneKeepsStructureAndAnswers(t *testing.T) {
	for _, name := range []string{"broken", "figure2", "firewall"} {
		t.Run(name, func(t *testing.T) {
			dp := run(t, testNets()[name])
			base := fwdgraph.New(dp)
			clone := base.Clone()
			if clone.Enc.F == base.Enc.F {
				t.Fatal("clone shares the base factory")
			}
			if len(clone.Nodes) != len(base.Nodes) || len(clone.Edges) != len(base.Edges) {
				t.Fatalf("clone has %d nodes/%d edges, base %d/%d",
					len(clone.Nodes), len(clone.Edges), len(base.Nodes), len(base.Edges))
			}
			for i, n := range base.Nodes {
				if clone.Nodes[i] != n {
					t.Errorf("node %d: clone %+v, base %+v", i, clone.Nodes[i], n)
				}
				if id, ok := clone.Lookup(n.Name); !ok || id != n.ID {
					t.Errorf("clone Lookup(%q) = %d, %v; want %d", n.Name, id, ok, n.ID)
				}
			}
			for i, e := range base.Edges {
				c := clone.Edges[i]
				if c.From != e.From || c.To != e.To || c.ClearZone != e.ClearZone || c.ZoneSet != e.ZoneSet {
					t.Errorf("edge %d: clone %d->%d, base %d->%d", i, c.From, c.To, e.From, e.To)
				}
			}
			checkIndex(t, clone)

			a := reach.New(clone)
			enc := clone.Enc
			tr := traceroute.New(dp)
			for _, src := range a.Sources() {
				vrf := dp.Network.Devices[src.Device].Interfaces[src.Iface].VRFOrDefault()
				res, _ := a.Reachability(src, bdd.True)
				for sink, set := range res.Sinks {
					p, ok := enc.PickPacket(set, enc.FieldEq(hdr.Protocol, hdr.ProtoTCP))
					if !ok {
						continue
					}
					traces := tr.Run(src.Device, vrf, src.Iface, p)
					found := false
					for _, trc := range traces {
						found = found || string(trc.Disposition) == sink
						// Concrete → symbolic: every traced disposition of
						// this packet must hold it in the matching sink set.
						if trc.Disposition != traceroute.Loop &&
							enc.F.And(res.Sinks[string(trc.Disposition)], enc.PacketBDD(p)) == bdd.False {
							t.Errorf("%v: traceroute %v -> %s, not in the clone's set", src, p, trc.Disposition)
						}
					}
					if !found {
						t.Errorf("%v: clone says %s for %v, traceroute disagrees", src, sink, p)
					}
				}
			}
		})
	}
}

func TestNewContextCancelledBuildsConsistentIndex(t *testing.T) {
	dp := run(t, testnet.Figure2())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := fwdgraph.NewContext(ctx, dp)
	if !g.Cancelled {
		t.Fatal("graph built under a cancelled context is not marked cancelled")
	}
	if full := fwdgraph.New(dp); len(g.Nodes) >= len(full.Nodes) {
		t.Errorf("cancelled graph has %d nodes, full graph %d", len(g.Nodes), len(full.Nodes))
	}
	checkIndex(t, g)
	// Queries over the partial graph run without panicking.
	a := reach.New(g)
	a.Forward(a.SourceSets(bdd.True))
}
