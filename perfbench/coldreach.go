package main

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/reach"
	"repro/internal/server"
)

// coldReachSources is NET4's host-facing source count; every round must
// answer exactly this many.
const coldReachSources = 180

// runColdReach is the paper's Table 2 question on NET4: a fresh pipeline
// per round, then parse, data plane, forwarding graph, and one
// reachability question per host-facing source, in seeded order. A round
// is one operation per source; the run makes one round per started ten
// seconds of --seconds.
func runColdReach(r *runner) error {
	texts, err := setupRepeated(r, func() (map[string]string, func(), error) {
		texts, _, err := catalogTexts("NET4", "host")
		return texts, nil, err
	})
	if err != nil {
		return err
	}
	if r.traced {
		var out coldOut
		err := r.tracedPair(func(tr *tracer) (time.Duration, error) {
			o := coldRound(r, tr, texts)
			if tr.on {
				out = o
			}
			return o.wall, nil
		}, nil)
		if err != nil {
			return err
		}
		r.setLayerTimes()
		s := out.snap
		r.set("parse.devices", float64(len(s.Net.Devices)), "count")
		var c dpCounters
		c.add(s.DataPlane())
		r.setDataPlane(c)
		r.set("fwdgraph.edges", float64(len(s.Graph().Edges)), "count")
		r.set("reach.sources", float64(len(out.lats)), "count")
		r.set("reach.source_p50_ms", percentile(out.lats, 0.5), "ms")
		r.set("reach.source_p90_ms", percentile(out.lats, 0.9), "ms")
		f := s.Graph().Enc.F
		r.set("bdd.nodes", float64(f.Size()), "count")
		r.set("bdd.ops", float64(f.OpCount()), "count")
		r.setPipeline(pipeline.Stats{}, s.Pipeline().Stats())
		return nil
	}
	rounds := max(1, (r.seconds+9)/10)
	var walls, lats []float64
	for i := 0; i < rounds; i++ {
		release()
		out := coldRound(r, r.tr, texts)
		walls = append(walls, out.wall.Seconds())
		lats = append(lats, out.lats...)
	}
	if err := r.setOps(walls, lats, "source questions"); err != nil {
		return err
	}
	return r.setPeakRSS()
}

type coldOut struct {
	wall time.Duration
	lats []float64 // per-source question latency, ms
	snap *core.Snapshot
}

// coldRound runs one timed round, then checks its answers outside the
// timed region.
func coldRound(r *runner, tr *tracer, texts map[string]string) coldOut {
	tr.newRun()
	root := tr.begin("round", -1)
	start := time.Now()
	var s *core.Snapshot
	tr.time("parse", root, func() { s = core.LoadTextWith(pipeline.New(pipeline.Config{}), texts) })
	tr.time("dataplane", root, func() { s.DataPlane() })
	tr.time("fwdgraph", root, func() { s.Graph() })
	tr.time("analysis", root, func() { s.Analysis() })
	var srcs []reach.SourceLoc
	tr.time("sources", root, func() { srcs = s.HostFacing() })
	rng := rand.New(rand.NewSource(r.seed))
	rng.Shuffle(len(srcs), func(i, j int) { srcs[i], srcs[j] = srcs[j], srcs[i] })
	flows := make([]core.FlowResult, 0, len(srcs))
	lats := make([]float64, 0, len(srcs))
	for _, src := range srcs {
		var fr []core.FlowResult
		d := tr.time("reach", root, func() {
			fr = s.Reachability(core.ReachabilityParams{Sources: []reach.SourceLoc{src}})
		})
		lats = append(lats, ms(d))
		flows = append(flows, fr...)
	}
	wall := time.Since(start)
	tr.end(root)

	r.attempted += len(srcs)
	if len(srcs) != coldReachSources {
		r.fail("cold-reach: %d host-facing sources, want %d", len(srcs), coldReachSources)
	}
	if len(flows) != len(srcs) {
		r.fail("cold-reach: %d answers for %d sources", len(flows), len(srcs))
	}
	if s.Degraded() {
		r.fail("cold-reach: snapshot degraded: %v", s.Diags())
	}
	sortFlows(flows)
	r.checkDigest("cold-reach", "all-sources", server.RenderFlows(flows))
	checked, bad := crossCheckTraceroute(s, flows)
	for _, b := range bad {
		r.fail("cold-reach: %s", b)
	}
	r.note("cold-reach round: %d sources, %d examples replayed through traceroute, %d disagreements",
		len(srcs), checked, len(bad))
	return coldOut{wall: wall, lats: lats, snap: s}
}
