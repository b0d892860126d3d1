package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one measured round share
// a run id; parent is -1 for a round's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"`

	allocStart uint64
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory around the benchmark's calls into the
// program; nothing is written until the run ends. A disabled tracer still
// times calls (the end-to-end timers use it) but keeps no spans.
type tracer struct {
	on    bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
	run   int
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// newRun starts a new run id for the spans that follow.
func (t *tracer) newRun() {
	t.mu.Lock()
	t.run++
	t.mu.Unlock()
}

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	start := time.Since(t.epoch).Nanoseconds()
	alloc := readRuntime().allocBytes
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Run: t.run, Name: name,
		Start: start, allocStart: alloc})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	alloc := readRuntime().allocBytes
	end := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	s := &t.spans[id]
	s.End = end
	s.Alloc = alloc - s.allocStart
	t.mu.Unlock()
}

// time runs fn inside a span named name and returns fn's wall time.
func (t *tracer) time(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// layerStats aggregates the spans of one name.
type layerStats struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	AllocMB float64 `json:"alloc_mb"`
}

// layers returns per-name statistics. A span's self time is its duration
// minus the part of its interval its child spans cover.
func (t *tracer) layers() map[string]layerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerStats)
	for _, s := range t.spans {
		ls := out[s.Name]
		ls.Count++
		ls.TotalMs += float64(s.dur()) / 1e6
		ls.SelfMs += float64(s.dur()-covered(s, children[s.ID])) / 1e6
		ls.AllocMB += mb(s.Alloc)
		out[s.Name] = ls
	}
	return out
}

// covered returns how many nanoseconds of s's interval the union of the
// children's intervals covers.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// coverage returns the summed wall time of the root spans (parent -1)
// and the part of it their child spans cover.
func (t *tracer) coverage() (coveredMs, totalMs float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		if s.Parent < 0 {
			totalMs += float64(s.dur()) / 1e6
			coveredMs += float64(covered(s, children[s.ID])) / 1e6
		}
	}
	return coveredMs, totalMs
}

// spanCount returns the number of recorded spans.
func (t *tracer) spanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// traceFile is what writeTrace stores: every span plus the per-layer
// self times and the tracing overhead.
type traceFile struct {
	Workload   string                `json:"workload"`
	Seed       int64                 `json:"seed"`
	UntracedMs float64               `json:"untraced_wall_ms"`
	TracedMs   float64               `json:"traced_wall_ms"`
	OverheadMs float64               `json:"overhead_ms"`
	Layers     map[string]layerStats `json:"layers"`
	Spans      []span                `json:"spans"`
}

// traceDir is where traced runs leave their span files, relative to the
// directory the benchmark runs from.
const traceDir = ".bench_build/perfbench-traces"

// writeTrace writes the traced pass's spans when the run traced anything.
func (r *runner) writeTrace(workload string) error {
	if !r.tr.on {
		return nil
	}
	tf := traceFile{Workload: workload, Seed: r.seed, UntracedMs: r.untracedMs, TracedMs: r.tracedMs,
		OverheadMs: r.tracedMs - r.untracedMs, Layers: r.tr.layers()}
	r.tr.mu.Lock()
	tf.Spans = append([]span(nil), r.tr.spans...)
	r.tr.mu.Unlock()
	b, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", workload, r.seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	r.note("spans written to %s", path)
	return nil
}
