package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ip4"
	"repro/internal/pipeline"
	"repro/internal/reach"
	"repro/internal/sweep"
)

// The monitored flow: a user LAN in NET1's area 1 to a LAN on
// net1-a03-acc03 in area 3. The source names its interface: a bare
// device name matches no source (NOTES.md, known defects).
var (
	sweepSource = reach.SourceLoc{Device: "net1-a01-acc01", Iface: "Vlan100"}
	sweepDst    = ip4.MustParsePrefix("10.0.40.0/24")
)

// sweepCounts are the exact plan and outcome counts of the k=1 link and
// node sweep of the monitored flow.
var sweepCounts = struct{ enumerated, classes, executed, pruned, violations int }{157, 46, 45, 112, 3}

// runSweepK1 is a k=1 link and node failure sweep of one monitored flow
// on NET1 (the Plankton-style enumeration of PAPERS.md): plan
// (enumeration, blast-radius classes) then execution of each class
// representative on sweep.Spec.Workers = GOMAXPROCS private pipelines.
// An operation is one executed class, timed from the start of the round
// to its verdict, as a client streaming verdicts sees it; a round is plan
// plus execute, one per started ten seconds of --seconds. The inputs do not depend on the
// seed.
func runSweepK1(r *runner) error {
	var texts map[string]string
	base, err := setupRepeated(r, func() (*core.Snapshot, func(), error) {
		var err error
		texts, _, err = catalogTexts("NET1", "Vlan")
		if err != nil {
			return nil, nil, err
		}
		base, err := newSweepBase(texts)
		return base, nil, err
	})
	if err != nil {
		return err
	}
	if r.traced {
		var out sweepOut
		err := r.tracedPair(func(tr *tracer) (time.Duration, error) {
			o := sweepRound(r, tr, base)
			if tr.on {
				out = o
			}
			return o.wall, nil
		}, func() error {
			// The first pass's plan is cached in the base's pipeline.
			base = nil
			release()
			base, err = newSweepBase(texts)
			return err
		})
		if err != nil {
			return err
		}
		r.setLayerTimes()
		l := r.tr.layers()
		r.set("sweep.plan_ms", l["sweep.plan"].SelfMs, "ms")
		r.set("sweep.exec_ms", l["sweep.exec"].SelfMs, "ms")
		r.set("sweep.answer_p50_ms", percentile(out.answered, 0.5), "ms")
		r.set("sweep.answers_timed", float64(len(out.answered)), "count")
		if res := out.res; res != nil {
			r.set("sweep.executed", float64(res.Executed), "count")
			r.set("sweep.enumerated", float64(res.Enumerated), "count")
			r.set("sweep.prune_ratio", ratio(float64(res.Pruned), float64(res.Enumerated)), "ratio")
		}
		return nil
	}
	rounds := max(1, (r.seconds+9)/10)
	var walls, answered []float64
	for i := 0; i < rounds; i++ {
		runtime.GC()
		out := sweepRound(r, r.tr, base)
		walls = append(walls, out.wall.Seconds())
		answered = append(answered, out.answered...)
	}
	if err := r.setOps(walls, answered, "executed-class verdicts"); err != nil {
		return err
	}
	return r.setPeakRSS()
}

// newSweepBase loads the sweep's base snapshot and its data plane.
func newSweepBase(texts map[string]string) (*core.Snapshot, error) {
	base := core.LoadTextWith(pipeline.New(pipeline.Config{}), texts)
	base.DataPlane()
	if base.Degraded() {
		return nil, fmt.Errorf("base snapshot degraded: %v", base.Diags())
	}
	return base, nil
}

type sweepOut struct {
	wall     time.Duration
	answered []float64 // ms from round start to each executed class's verdict
	res      *sweep.Result
}

// sweepRound plans and executes the sweep, then checks its counts and
// verdict digest. The round is one attempted operation: it fails on any
// count or digest mismatch, a degraded verdict, or a sweep that monitored
// no source or executed no class.
func sweepRound(r *runner, tr *tracer, base *core.Snapshot) sweepOut {
	spec := sweep.Spec{K: 1, Links: true, Nodes: true, Workers: runtime.GOMAXPROCS(0),
		Sources: []reach.SourceLoc{sweepSource}, DstIPs: []ip4.Prefix{sweepDst}}
	tr.newRun()
	root := tr.begin("round", -1)
	start := time.Now()
	var plan *sweep.Plan
	var err error
	tr.time("sweep.plan", root, func() { plan, err = sweep.NewPlan(base, spec) })
	var res *sweep.Result
	var mu sync.Mutex
	var answered []float64 // ms from round start to each executed class's verdict
	if err == nil {
		tr.time("sweep.exec", root, func() {
			res, err = plan.Execute(context.Background(), func(v sweep.Verdict) {
				if v.Executed {
					mu.Lock()
					answered = append(answered, ms(time.Since(start)))
					mu.Unlock()
				}
			})
		})
	}
	wall := time.Since(start)
	tr.end(root)

	r.attempted++
	out := sweepOut{wall: wall, answered: answered, res: res}
	if err != nil {
		r.fail("sweep-k1: %v", err)
		return out
	}
	got := struct{ enumerated, classes, executed, pruned, violations int }{
		res.Enumerated, res.Classes, res.Executed, res.Pruned, res.Violations}
	switch {
	case len(res.Baseline) == 0:
		r.fail("sweep-k1: no monitored source matched %s/%s", sweepSource.Device, sweepSource.Iface)
	case res.Executed == 0:
		r.fail("sweep-k1: no class executed")
	case res.Degraded:
		r.fail("sweep-k1: degraded sweep")
	case got != sweepCounts:
		r.fail("sweep-k1: counts %+v, want %+v", got, sweepCounts)
	default:
		b, err := json.Marshal(res)
		if err != nil {
			r.fail("sweep-k1: encode verdicts: %v", err)
			break
		}
		r.checkDigest("sweep-k1", "verdicts", string(b))
	}
	r.note("sweep-k1: %d enumerated, %d classes, %d executed, %d pruned, %d violations",
		res.Enumerated, res.Classes, res.Executed, res.Pruned, res.Violations)
	return out
}
