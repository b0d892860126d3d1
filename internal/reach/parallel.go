package reach

import (
	"runtime"
	"sync"

	"repro/internal/bdd"
	"repro/internal/dataplane"
	"repro/internal/fwdgraph"
	"repro/internal/hdr"
)

// QueryPool fans per-source reachability queries across replica analyses.
// BDD factories are not safe for concurrent use and refs never cross
// factories, so the pool holds one graph replica per worker
// (fwdgraph.BuildReplicas), each viewed through its own Analysis, and
// shards the source list across them. Every replica sees the same data
// plane, so per-source results are identical to the serial analysis; only
// factory-independent values (sources, concrete example packets) are
// returned across the pool boundary.
type QueryPool struct {
	workers []*Analysis
}

// NewQueryPool builds a pool of `workers` replica analyses. workers <= 0
// means GOMAXPROCS. Replica construction itself runs in parallel.
func NewQueryPool(dp *dataplane.Result, workers int) *QueryPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	graphs := fwdgraph.BuildReplicas(dp, workers)
	q := &QueryPool{workers: make([]*Analysis, len(graphs))}
	for i, g := range graphs {
		q.workers[i] = New(g)
	}
	return q
}

// Workers returns the number of replica analyses in the pool.
func (q *QueryPool) Workers() int { return len(q.workers) }

// Primary returns the pool's first replica. Gather rebases results into
// this replica's factory, so refs it returns are usable with
// Primary().Enc for further set algebra and example extraction.
func (q *QueryPool) Primary() *Analysis { return q.workers[0] }

// Gather runs query once per source location, fanned across the pool's
// replicas, and returns the per-source packet sets rebased into the
// Primary replica's factory (result order matches Sources()).
//
// Cross-factory transfer happens at a single batched rendezvous per
// worker after all queries complete: one bdd.Migrator per replica copies
// that replica's results into the primary factory, with the memo shared
// across the whole batch so subgraphs common to many sources migrate
// once. This is the only point where BDD structure crosses worker
// boundaries; during the query phase the replicas share nothing.
func (q *QueryPool) Gather(query func(a *Analysis, src SourceLoc) bdd.Ref) []bdd.Ref {
	srcs := q.workers[0].Sources()
	refs := make([]bdd.Ref, len(srcs))
	var wg sync.WaitGroup
	wg.Add(len(q.workers))
	for w := range q.workers {
		go func(w int) {
			defer wg.Done()
			a := q.workers[w]
			for i := w; i < len(srcs); i += len(q.workers) {
				refs[i] = query(a, srcs[i])
			}
		}(w)
	}
	wg.Wait()
	// Rendezvous: serial into the primary factory (it is single-threaded),
	// batched per worker so each replica's shared structure copies once.
	for w := 1; w < len(q.workers); w++ {
		m := bdd.NewMigrator(q.workers[w].Enc.F, q.workers[0].Enc.F)
		for i := w; i < len(srcs); i += len(q.workers) {
			refs[i] = m.Migrate(refs[i])
		}
	}
	return refs
}

// EachSource invokes fn once per source location, fanned across the
// replicas. slot is the source's index in the sorted Sources() order, so
// callers can write results into a pre-sized slice without locking. fn
// must treat the analysis as scoped to the call: any bdd.Ref it computes
// belongs to that replica's factory and must not escape into shared state.
func (q *QueryPool) EachSource(fn func(a *Analysis, src SourceLoc, slot int)) {
	srcs := q.workers[0].Sources()
	var wg sync.WaitGroup
	wg.Add(len(q.workers))
	for w := range q.workers {
		go func(w int) {
			defer wg.Done()
			a := q.workers[w]
			for i := w; i < len(srcs); i += len(q.workers) {
				fn(a, srcs[i], i)
			}
		}(w)
	}
	wg.Wait()
}

// MultipathConsistencySets is the pooled multipath-consistency query with
// the violating packet *sets* preserved: each source's "delivered on some
// path AND dropped on another" set is computed on a replica and rebased
// into Primary()'s factory at the Gather rendezvous, where the witness
// packets are then picked. Results match the serial
// Analysis.MultipathConsistency exactly — same sources, same sets, same
// examples — because every replica sees the same data plane and example
// selection runs on the rebased sets with the same preferences.
func (q *QueryPool) MultipathConsistencySets(hs func(enc *hdr.Enc) bdd.Ref) []MultipathViolation {
	// Per-replica header space, built once per worker before the fan-out
	// (read-only during Gather, so concurrent map reads are safe).
	spaces := make(map[*Analysis]bdd.Ref, len(q.workers))
	for _, a := range q.workers {
		spaces[a] = bdd.True
		if hs != nil {
			spaces[a] = hs(a.Enc)
		}
	}
	both := q.Gather(func(a *Analysis, src SourceLoc) bdd.Ref {
		res, ok := a.Reachability(src, spaces[a])
		if !ok {
			return bdd.False
		}
		success, failure := Partition(res.Sinks, a.Enc.F)
		return a.Enc.F.And(success, failure)
	})
	prim := q.Primary()
	srcs := prim.Sources()
	var out []MultipathViolation
	for i, b := range both {
		if b == bdd.False {
			continue
		}
		ex, _ := prim.Enc.PickPacket(b,
			prim.Enc.FieldEq(hdr.Protocol, hdr.ProtoTCP),
			prim.Enc.FieldGE(hdr.SrcPort, 1024))
		out = append(out, MultipathViolation{Source: srcs[i], Packets: b, Example: ex})
	}
	return out
}

// Violation is the factory-independent form of MultipathViolation: the
// packet-set BDD is replaced by a concrete witness packet so results can
// be merged across replicas.
type Violation struct {
	Source  SourceLoc
	Example hdr.Packet
}

// MultipathConsistency runs the multipath-consistency query (§6.1) with
// sources fanned across the pool. hs builds the header space against a
// replica's encoder (nil means all packets); it is called once per worker.
// Results are returned in sorted source order, matching the serial
// Analysis.MultipathConsistency.
func (q *QueryPool) MultipathConsistency(hs func(enc *hdr.Enc) bdd.Ref) []Violation {
	srcs := q.workers[0].Sources()
	found := make([]*Violation, len(srcs))
	spaces := make([]bdd.Ref, len(q.workers))
	for w, a := range q.workers {
		spaces[w] = bdd.True
		if hs != nil {
			spaces[w] = hs(a.Enc)
		}
	}
	var wg sync.WaitGroup
	wg.Add(len(q.workers))
	for w := range q.workers {
		go func(w int) {
			defer wg.Done()
			a := q.workers[w]
			f := a.Enc.F
			for i := w; i < len(srcs); i += len(q.workers) {
				res, ok := a.Reachability(srcs[i], spaces[w])
				if !ok {
					continue
				}
				success, failure := Partition(res.Sinks, f)
				both := f.And(success, failure)
				if both == bdd.False {
					continue
				}
				ex, _ := a.Enc.PickPacket(both,
					a.Enc.FieldEq(hdr.Protocol, hdr.ProtoTCP),
					a.Enc.FieldGE(hdr.SrcPort, 1024))
				found[i] = &Violation{Source: srcs[i], Example: ex}
			}
		}(w)
	}
	wg.Wait()
	out := make([]Violation, 0, len(srcs))
	for _, v := range found {
		if v != nil {
			out = append(out, *v)
		}
	}
	return out
}
