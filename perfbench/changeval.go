package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/server"
)

// changeUniversePerKind is how many NET4 devices each edit kind can
// target; seeds choose among them.
const changeUniversePerKind = 16

// runChangeValidation is proactive change validation (paper §5.1) on
// NET4: a baseline loaded and fully answered during set-up, then a seeded
// sequence of single-device edits, each taken from base.Edit through the
// after-snapshot's data plane, graph and analysis to base.CompareWith.
// One operation is one edit; the run validates one edit of each kind per
// started ten seconds of --seconds, all against the same baseline and
// pipeline, so the store's retention of every after-snapshot shows in
// peak_rss_mb.
func runChangeValidation(r *runner) error {
	perKind := max(1, (r.seconds+9)/10)
	type input struct {
		texts map[string]string
		seq   []edit
		base  *core.Snapshot
	}
	var warm edit
	in, err := setupRepeated(r, func() (input, func(), error) {
		texts, hosts, err := catalogTexts("NET4", "host")
		if err != nil {
			return input{}, nil, err
		}
		univ, err := editUniverse(texts, hosts, changeUniversePerKind)
		if err != nil {
			return input{}, nil, err
		}
		if warm, err = warmUpEdit(texts, hosts); err != nil {
			return input{}, nil, err
		}
		return input{texts, changeSequence(univ, perKind, r.seed), warmBaseline(r, texts, warm)}, nil, nil
	})
	if err != nil {
		return err
	}
	if r.traced {
		var out cvOut
		var base *core.Snapshot
		err := r.tracedPair(func(tr *tracer) (time.Duration, error) {
			o := validateSequence(r, tr, in.base, in.seq)
			if tr.on {
				out, base = o, in.base
			}
			return o.wall, nil
		}, func() error {
			// The first pass's edits are cached in its baseline's pipeline.
			in.base = nil
			release()
			in.base = warmBaseline(r, in.texts, warm)
			return nil
		})
		if err != nil {
			return err
		}
		r.setLayerTimes()
		r.set("parse.devices", float64(out.devices), "count")
		r.setDataPlane(out.dp)
		r.set("fwdgraph.edges", float64(out.edges), "count")
		r.set("compare.diffs", float64(out.diffs), "count")
		r.set("validate.edits", float64(len(out.lats)), "count")
		f := base.Graph().Enc.F
		r.set("bdd.nodes", float64(f.Size()), "count")
		r.set("bdd.ops", float64(out.bddOps), "count")
		r.setPipeline(out.plBefore, base.Pipeline().Stats())
		return nil
	}
	out := validateSequence(r, r.tr, in.base, in.seq)
	if err := r.setOps([]float64{out.wall.Seconds()}, out.lats, "edits"); err != nil {
		return err
	}
	return r.setPeakRSS()
}

// warmBaseline loads texts on a fresh pipeline, answers reachability for
// every host-facing source, and validates the warm-up edit. The first
// edit against a baseline grows the shared BDD tables, which took it
// 0.5-1.2 s longer than the same edit later in the sequence; doing it in
// set-up keeps that one-off cost out of every measured edit.
func warmBaseline(r *runner, texts map[string]string, warm edit) *core.Snapshot {
	base := core.LoadTextWith(pipeline.New(pipeline.Config{}), texts)
	base.Reachability(core.ReachabilityParams{})
	validateSequence(r, newTracer(false), base, []edit{warm})
	return base
}

// warmUpEdit is an unused static route, to a prefix no sequence edit
// uses, on the first host-facing device.
func warmUpEdit(texts map[string]string, hosts []hostIface) (edit, error) {
	dev := hosts[0].Device
	text, err := addStatic(texts[dev], "203.0.113.0 255.255.255.0 Null0")
	return edit{Key: "warm-up:" + dev, Device: dev, Text: text}, err
}

type cvOut struct {
	wall     time.Duration // sum of the edits' latencies
	lats     []float64     // per-edit latency, ms
	devices  int           // devices parsed across the after-snapshots
	edges    int           // forwarding-graph edges across the after-snapshots
	diffs    int
	bddOps   uint64
	dp       dpCounters
	plBefore pipeline.Stats
}

// validateSequence validates each edit against base and checks each
// differential answer against its recorded digest (outside the timing).
func validateSequence(r *runner, tr *tracer, base *core.Snapshot, seq []edit) cvOut {
	out := cvOut{plBefore: base.Pipeline().Stats()}
	f := base.Graph().Enc.F
	opsBefore := f.OpCount()
	tr.newRun()
	for _, e := range seq {
		// Collect the previous edit's garbage first, so each edit pays
		// only for the collections its own allocation triggers.
		runtime.GC()
		id := tr.begin("edit", -1)
		start := time.Now()
		var after *core.Snapshot
		tr.time("parse", id, func() { after = base.Edit(map[string]string{e.Device: e.Text}) })
		tr.time("dataplane", id, func() { after.DataPlane() })
		tr.time("fwdgraph", id, func() { after.Graph() })
		tr.time("analysis", id, func() { after.Analysis() })
		var diffs []core.DifferentialFlows
		tr.time("compare", id, func() { diffs = base.CompareWith(after) })
		d := time.Since(start)
		tr.end(id)

		out.wall += d
		out.lats = append(out.lats, ms(d))
		out.devices += len(after.Net.Devices)
		out.edges += len(after.Graph().Edges)
		out.diffs += len(diffs)
		out.dp.add(after.DataPlane())
		r.attempted++
		if after.Degraded() || base.Degraded() {
			r.fail("change-validation: %s: degraded: %v %v", e.Key, after.Diags(), base.Diags())
			continue
		}
		r.checkDigest("change-validation", e.Key, server.RenderDiffs(diffs))
	}
	out.bddOps = f.OpCount() - opsBefore
	return out
}
