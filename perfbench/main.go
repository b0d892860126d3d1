// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload per invocation against the packages under internal/,
// checks every answer, and prints one JSON result line:
//
//	go run . --workload cold-reach --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// the workload runs once untraced and once with in-memory spans around
// each call into a layer, and the result holds the per-layer metrics plus
// the tracing overhead. NOTES.md describes the workloads, the metrics and
// the known defects they keep visible.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// workload is one named benchmark scenario.
type workload struct {
	name string
	run  func(r *runner) error
}

var workloads = []workload{
	{"cold-reach", runColdReach},
	{"change-validation", runChangeValidation},
	{"service-mix", runServiceMix},
	{"sweep-k1", runSweepK1},
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the workload derives its inputs from")
	seconds := fs.Int("seconds", 20, "run length; sizes the measured work (see NOTES.md)")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced pass")
	record := fs.String("record", "", "recompute the answer digests of every workload input and write them to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordDigests(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	r := newRunner(*seed, *seconds, *trace == 1)
	if err := w.run(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := r.writeTrace(w.name); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := r.result()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	r.summary(w.name)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner carries one invocation's settings and accumulates its outcome.
type runner struct {
	seed    int64
	seconds int
	traced  bool
	tr      *tracer

	attempted int
	failed    int
	problems  []string // oracle mismatches, for the stderr summary

	metrics map[string]metric
	notes   []string // sample counts and bases, for the stderr summary

	untracedMs, tracedMs float64 // a traced run's two pass wall times

	// recording, when set, collects answer digests instead of checking
	// them (--record).
	recording digestTable
}

func newRunner(seed int64, seconds int, traced bool) *runner {
	return &runner{seed: seed, seconds: seconds, traced: traced, tr: newTracer(false),
		metrics: make(map[string]metric)}
}

// set records a metric.
func (r *runner) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// note records a line for the human-readable summary on stderr.
func (r *runner) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts a failed operation and remembers why.
func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *runner) result() (result, error) {
	m, err := r.reportedMetrics()
	if err != nil {
		return result{}, err
	}
	return result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   m,
	}, nil
}

// summary prints every metric by name with its unit, the sample counts
// behind each percentile, and any oracle mismatch to stderr.
func (r *runner) summary(name string) {
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d seconds=%d trace=%v: attempted=%d failed=%d\n",
		name, r.seed, r.seconds, r.traced, r.attempted, r.failed)
	keys := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-26s %14.4f %s\n", k, r.metrics[k].Value, r.metrics[k].Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, "  note:", n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "  FAIL:", p)
	}
}
