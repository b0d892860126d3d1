// Package reach is the BDD-based data plane verification engine (paper
// §4.2): a dataflow analysis over the forwarding graph that computes, for
// every node, the set of packets that can reach it. On top of the core
// forward fixed point it implements the paper's extensions and
// optimizations — backward propagation for single-destination queries,
// waypoint tracking, multipath-consistency checking, and bidirectional
// reachability through stateful devices. Graph compression (§4.2.3) is
// deliberately absent: it measured no gain at our scale (EXPERIMENTS E9),
// so every analysis runs over the uncompressed graph it was given.
package reach

import (
	"context"
	"sort"

	"repro/internal/bdd"
	"repro/internal/fwdgraph"
	"repro/internal/hdr"
)

// Analysis is one snapshot's view of the forwarding graph: it reads the
// graph's edges and adjacency directly and owns only the cancellation
// state of its fixed-point loops. Construction is O(1), so every caller
// that needs private cancellation state builds its own.
type Analysis struct {
	G   *fwdgraph.Graph
	Enc *hdr.Enc

	ctx context.Context // nil means context.Background()

	// Cancelled latches when a fixed-point loop observed an expired
	// context and returned an under-approximate result.
	Cancelled bool
}

// New returns an analysis over g. The graph is only read, never mutated.
func New(g *fwdgraph.Graph) *Analysis {
	return &Analysis{G: g, Enc: g.Enc}
}

// WithContext attaches a context checked periodically inside the
// Forward/Backward fixed-point loops. When it expires the loop stops
// early: the returned sets are a sound under-approximation (every packet
// reported reachable truly is) and Cancelled is set. Returns the analysis
// for chaining.
func (a *Analysis) WithContext(ctx context.Context) *Analysis {
	a.ctx = ctx
	return a
}

// checkEvery is how many queue pops pass between context checks in the
// fixed-point loops — frequent enough for sub-millisecond cancellation
// latency, rare enough that the atomic load in ctx.Err is invisible.
const checkEvery = 64

func (a *Analysis) expired(pops int) bool {
	if a.ctx == nil || pops%checkEvery != 0 || a.ctx.Err() == nil {
		return false
	}
	a.Cancelled = true
	return true
}

// Forward runs the forward dataflow fixed point from the given start sets
// (node id -> packet set) and returns the reachable set per node. Sets only
// grow, unions are monotone, and the variable count is fixed, so the fixed
// point terminates even on cyclic graphs (forwarding loops).
func (a *Analysis) Forward(start map[int]bdd.Ref) []bdd.Ref {
	return a.forward(start, nil, nil)
}

// forward optionally takes a per-device session fast-path map (device ->
// return-flow set) used by bidirectional analysis, and a node id ->
// extension-bit map used by waypoint tracking: every contribution into
// such a node has that bit set.
func (a *Analysis) forward(start map[int]bdd.Ref, fastPath map[string]bdd.Ref, setBit map[int]int) []bdd.Ref {
	f := a.Enc.F
	reach := make([]bdd.Ref, len(a.G.Nodes))
	inQueue := make([]bool, len(a.G.Nodes))
	var queue []int
	push := func(n int) {
		if !inQueue[n] {
			inQueue[n] = true
			queue = append(queue, n)
		}
	}
	starts := make([]int, 0, len(start))
	for n := range start {
		starts = append(starts, n)
	}
	sort.Ints(starts)
	for _, n := range starts {
		reach[n] = f.Or(reach[n], start[n])
		push(n)
	}
	pops := 0
	for len(queue) > 0 {
		pops++
		if a.expired(pops) {
			return reach
		}
		n := queue[0]
		queue = queue[1:]
		inQueue[n] = false
		set := reach[n]
		if set == bdd.False {
			continue
		}
		for _, ei := range a.G.Out[n] {
			e := &a.G.Edges[ei]
			contribution := e.Apply(a.Enc, set)
			if fastPath != nil && e.Raw != bdd.False {
				if fp, ok := fastPath[a.G.Nodes[e.From].Node_]; ok && fp != bdd.False {
					// Session fast path: matching return traffic bypasses
					// the filter (Raw is the unfiltered label).
					bypass := f.And(f.And(set, fp), e.Raw)
					contribution = f.Or(contribution, bypass)
				}
			}
			if contribution == bdd.False {
				continue
			}
			if bit, ok := setBit[e.To]; ok {
				contribution = a.Enc.SetBit(contribution, bit)
			}
			next := f.Or(reach[e.To], contribution)
			if next != reach[e.To] {
				reach[e.To] = next
				push(e.To)
			}
		}
	}
	return reach
}

// Backward computes, for every node, the set of packets that — if present
// at that node — would eventually reach one of the given sink sets. For a
// single-destination query this walks only the destination's forwarding
// cone instead of the whole graph (paper §4.2.3 "single-destination
// reverse propagation").
func (a *Analysis) Backward(sinks map[int]bdd.Ref) []bdd.Ref {
	f := a.Enc.F
	sets := make([]bdd.Ref, len(a.G.Nodes))
	inQueue := make([]bool, len(a.G.Nodes))
	var queue []int
	push := func(n int) {
		if !inQueue[n] {
			inQueue[n] = true
			queue = append(queue, n)
		}
	}
	ns := make([]int, 0, len(sinks))
	for n := range sinks {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	for _, n := range ns {
		sets[n] = f.Or(sets[n], sinks[n])
		push(n)
	}
	pops := 0
	for len(queue) > 0 {
		pops++
		if a.expired(pops) {
			return sets
		}
		n := queue[0]
		queue = queue[1:]
		inQueue[n] = false
		set := sets[n]
		if set == bdd.False {
			continue
		}
		for _, ei := range a.G.In[n] {
			e := &a.G.Edges[ei]
			contribution := e.ApplyReverse(a.Enc, set)
			if contribution == bdd.False {
				continue
			}
			next := f.Or(sets[e.From], contribution)
			if next != sets[e.From] {
				sets[e.From] = next
				push(e.From)
			}
		}
	}
	return sets
}

// SourceSets builds the default start map: every interface source node
// carries the given header space, constrained to zone/waypoint bits = 0.
func (a *Analysis) SourceSets(hs bdd.Ref) map[int]bdd.Ref {
	f := a.Enc.F
	if a.Enc.L.ExtBits() > 0 {
		hs = f.And(hs, a.Enc.ExtEq(0, a.Enc.L.ExtBits(), 0))
	}
	start := make(map[int]bdd.Ref)
	for id := range a.G.Nodes {
		if a.G.Nodes[id].Kind == fwdgraph.KindSource {
			start[id] = hs
		}
	}
	return start
}

// SingleSource builds a start map for one interface source.
func (a *Analysis) SingleSource(device, iface string, hs bdd.Ref) (map[int]bdd.Ref, bool) {
	id, ok := a.G.Lookup(fwdgraph.SourceName(device, iface))
	if !ok {
		return nil, false
	}
	f := a.Enc.F
	if a.Enc.L.ExtBits() > 0 {
		hs = f.And(hs, a.Enc.ExtEq(0, a.Enc.L.ExtBits(), 0))
	}
	return map[int]bdd.Ref{id: hs}, true
}

// SinkSets groups reachable sets by sink kind, with zone/waypoint bits
// erased for presentation.
func (a *Analysis) SinkSets(reach []bdd.Ref) map[string]bdd.Ref {
	f := a.Enc.F
	out := make(map[string]bdd.Ref)
	for id, set := range reach {
		if set == bdd.False || a.G.Nodes[id].Kind != fwdgraph.KindSink {
			continue
		}
		kind := a.G.Nodes[id].Extra
		out[kind] = f.Or(out[kind], a.Enc.ClearExt(set))
	}
	return out
}

// SuccessSinks are the dispositions that count as "delivered".
var SuccessSinks = map[string]bool{
	fwdgraph.SinkAccepted:        true,
	fwdgraph.SinkExitsNetwork:    true,
	fwdgraph.SinkDeliveredToHost: true,
}

// Partition splits sink sets into delivered and failed packet sets.
func Partition(sinks map[string]bdd.Ref, f *bdd.Factory) (success, failure bdd.Ref) {
	success, failure = bdd.False, bdd.False
	for kind, set := range sinks {
		if SuccessSinks[kind] {
			success = f.Or(success, set)
		} else {
			failure = f.Or(failure, set)
		}
	}
	return success, failure
}
