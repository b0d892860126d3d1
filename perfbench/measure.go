package main

import (
	"fmt"
	"time"

	"repro/internal/dataplane"
	"repro/internal/pipeline"
	"repro/internal/routing"
)

// endToEnd lists the metrics a --trace 0 run reports. Every workload
// reports each of them; what a round and an operation are differs by
// workload (NOTES.md). The names and units match BENCHMARK.json.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a --trace 1 run reports. A layer a workload
// does not reach from outside reports 0.
var perLayer = []struct{ name, unit string }{
	{"parse.ms", "ms"},
	{"parse.devices", "count"},
	{"dataplane.ms", "ms"},
	{"dataplane.runs", "count"},
	{"dataplane.routes", "count"},
	{"dataplane.bgp_iterations", "count"},
	{"dataplane.igp_iterations", "count"},
	{"dataplane.alloc_mb", "MB"},
	{"routing.attr_hit_ratio", "ratio"},
	{"routing.attr_lookups", "count"},
	{"routing.unique_attrs", "count"},
	{"fwdgraph.ms", "ms"},
	{"fwdgraph.edges", "count"},
	{"fwdgraph.alloc_mb", "MB"},
	{"reach.ms", "ms"},
	{"reach.sources", "count"},
	{"reach.source_p50_ms", "ms"},
	{"reach.source_p90_ms", "ms"},
	{"reach.alloc_mb", "MB"},
	{"bdd.nodes", "count"},
	{"bdd.ops", "count"},
	{"compare.ms", "ms"},
	{"compare.diffs", "count"},
	{"validate.edits", "count"},
	{"pipeline.hit_ratio", "ratio"},
	{"pipeline.lookups", "count"},
	{"pipeline.entries", "count"},
	{"pipeline.evictions", "count"},
	{"server.p50_ms", "ms"},
	{"server.p99_ms", "ms"},
	{"server.shed", "count"},
	{"server.retries", "count"},
	{"server.peak_queued", "count"},
	{"service.reads", "count"},
	{"service.read_p50_ms", "ms"},
	{"service.read_p90_ms", "ms"},
	{"service.writes", "count"},
	{"service.write_p50_ms", "ms"},
	{"service.throughput_rps", "1/s"},
	{"service.repeat_share", "ratio"},
	{"sweep.plan_ms", "ms"},
	{"sweep.exec_ms", "ms"},
	{"sweep.answer_p50_ms", "ms"},
	{"sweep.answers_timed", "count"},
	{"sweep.executed", "count"},
	{"sweep.enumerated", "count"},
	{"sweep.prune_ratio", "ratio"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"trace.spans", "count"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_ms", "ms"},
}

// reportedMetrics keeps exactly the metrics of the run's mode: the
// end-to-end ones (each must have been measured) or the per-layer ones
// (a layer the workload does not exercise reads 0).
func (r *runner) reportedMetrics() (map[string]metric, error) {
	out := make(map[string]metric)
	if !r.traced {
		for _, m := range endToEnd {
			v, ok := r.metrics[m.name]
			if !ok {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", m.name)
			}
			out[m.name] = v
		}
		return out, nil
	}
	for _, m := range perLayer {
		v, ok := r.metrics[m.name]
		if !ok {
			v = metric{Value: 0, Unit: m.unit}
		}
		out[m.name] = v
	}
	return out, nil
}

// An untraced run sets up at least setupReps times and for at least
// setupMinTime (at most setupMaxReps times), reporting the median as
// setup_s; a set-up of a few milliseconds needs many samples for a
// steady median. A traced run sets up once and reports no setup_s.
const (
	setupReps    = 3
	setupMinTime = time.Second
	setupMaxReps = 50
)

// setupRepeated runs setup, timing it, and keeps the last result; the
// cleanup it returns (may be nil) is called for every discarded result.
func setupRepeated[T any](r *runner, setup func() (T, func(), error)) (T, error) {
	reps := setupReps
	if r.traced {
		reps = 1
	}
	var last T
	var cleanup func()
	var times []float64
	var spent time.Duration
	for i := 0; i < setupMaxReps && (i < reps || (!r.traced && spent < setupMinTime)); i++ {
		if cleanup != nil {
			cleanup()
		}
		var zero T
		last = zero
		release()
		start := time.Now()
		v, c, err := setup()
		if err != nil {
			return zero, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(start)
		spent += d
		times = append(times, d.Seconds())
		last, cleanup = v, c
	}
	r.set("setup_s", median(times), "s")
	r.note("setup_s is the median of %d set-ups", len(times))
	return last, nil
}

// tracedPair runs one pass of the measured work with spans (tracer r.tr)
// and then one without, each after a collection, and records the tracing
// overhead as the difference of their wall times. The traced pass runs
// first, so the warm-up a process's first pass pays counts against
// tracing and the overhead is not understated. fresh, when not nil,
// rebuilds the state the passes share between them (untimed), so the
// second pass finds nothing the first one cached.
func (r *runner) tracedPair(pass func(tr *tracer) (time.Duration, error), fresh func() error) error {
	release()
	r.tr = newTracer(true)
	before := readRuntime()
	traced, err := pass(r.tr)
	if err != nil {
		return err
	}
	after := readRuntime()
	release()
	if fresh != nil {
		if err := fresh(); err != nil {
			return err
		}
		release()
	}
	untraced, err := pass(newTracer(false))
	if err != nil {
		return err
	}
	r.untracedMs, r.tracedMs = ms(untraced), ms(traced)
	r.set("trace.overhead_ms", r.tracedMs-r.untracedMs, "ms")
	r.set("runtime.gc_cpu_s", after.gcCPU-before.gcCPU, "s")
	r.set("runtime.alloc_mb", mb(after.allocBytes-before.allocBytes), "MB")
	r.note("tracing overhead: traced %.1f ms - untraced %.1f ms", r.tracedMs, r.untracedMs)
	return nil
}

// setOps records the end-to-end timings: the median round wall time and
// the per-operation percentiles.
func (r *runner) setOps(walls, opsMs []float64, op string) error {
	if len(walls) == 0 || len(opsMs) == 0 {
		return fmt.Errorf("no rounds or operations measured")
	}
	r.set("wall_s", median(walls), "s")
	r.set("op_p50_ms", percentile(opsMs, 0.5), "ms")
	r.set("op_p90_ms", percentile(opsMs, 0.9), "ms")
	r.note("wall_s is the median of %d rounds; op percentiles over %d %s", len(walls), len(opsMs), op)
	return nil
}

// setPeakRSS records the process's peak resident set.
func (r *runner) setPeakRSS() error {
	v, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", v, "MB")
	return nil
}

// setLayerTimes records the traced pass's per-layer self times and
// allocations, the span count, and the share of round wall time the
// layer spans cover.
func (r *runner) setLayerTimes() {
	l := r.tr.layers()
	r.set("parse.ms", l["parse"].SelfMs, "ms")
	r.set("dataplane.ms", l["dataplane"].SelfMs, "ms")
	r.set("dataplane.alloc_mb", l["dataplane"].AllocMB, "MB")
	r.set("fwdgraph.ms", l["fwdgraph"].SelfMs, "ms")
	r.set("fwdgraph.alloc_mb", l["fwdgraph"].AllocMB, "MB")
	r.set("reach.ms", l["analysis"].SelfMs+l["sources"].SelfMs+l["reach"].SelfMs, "ms")
	r.set("reach.alloc_mb", l["analysis"].AllocMB+l["sources"].AllocMB+l["reach"].AllocMB, "MB")
	r.set("compare.ms", l["compare"].SelfMs, "ms")
	r.set("trace.spans", float64(r.tr.spanCount()), "count")
	cov, total := r.tr.coverage()
	r.set("trace.coverage", ratio(cov, total), "ratio")
	r.note("trace.coverage: layer spans cover %.1f of %.1f ms of measured wall time", cov, total)
}

// dpCounters accumulates data-plane counters over the runs a pass made.
type dpCounters struct {
	runs, routes, bgpIters, igpIters int
	pool                             routing.Stats
}

func (c *dpCounters) add(dp *dataplane.Result) {
	c.runs++
	c.bgpIters += dp.BGPIterations
	c.igpIters += dp.IGPIterations
	for _, n := range dp.Nodes {
		for _, v := range n.VRFs {
			c.routes += v.Main.Size()
		}
	}
	if dp.Pool != nil {
		st := dp.Pool.Stats()
		c.pool.AttrHits += st.AttrHits
		c.pool.AttrMisses += st.AttrMisses
		c.pool.UniqueAttrs += st.UniqueAttrs
	}
}

func (r *runner) setDataPlane(c dpCounters) {
	r.set("dataplane.runs", float64(c.runs), "count")
	r.set("dataplane.routes", float64(c.routes), "count")
	r.set("dataplane.bgp_iterations", float64(c.bgpIters), "count")
	r.set("dataplane.igp_iterations", float64(c.igpIters), "count")
	lookups := float64(c.pool.AttrHits + c.pool.AttrMisses)
	r.set("routing.attr_hit_ratio", ratio(float64(c.pool.AttrHits), lookups), "ratio")
	r.set("routing.attr_lookups", lookups, "count")
	r.set("routing.unique_attrs", float64(c.pool.UniqueAttrs), "count")
}

// setPipeline records the artifact store's activity between two reads of
// its counters: hit ratio over hits+misses, entries, and evictions.
func (r *runner) setPipeline(before, after pipeline.Stats) {
	hits := float64(after.Store.Hits - before.Store.Hits)
	lookups := hits + float64(after.Store.Misses-before.Store.Misses)
	r.set("pipeline.hit_ratio", ratio(hits, lookups), "ratio")
	r.set("pipeline.lookups", lookups, "count")
	r.set("pipeline.entries", float64(after.Store.Entries), "count")
	r.set("pipeline.evictions", float64(after.Store.Evictions-before.Store.Evictions), "count")
}
