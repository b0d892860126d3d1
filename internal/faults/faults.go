// Package faults is a deterministic fault-injection harness for the
// engine's failure-containment layer. Production code calls Fire at named
// injection points (stage + device); when no injector is active the call
// is a single atomic load, so the points cost nothing in normal runs.
// Tests — and operators, via the -faults flag on cmd/batfish — activate
// an Injector whose rules decide which points misbehave and how.
//
// Rules are keyed by stage and device ("*" matches any device), and every
// firing is counted, so chaos tests can assert both that a fault was
// actually exercised and that the engine degraded instead of dying.
package faults

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the behavior of an injection rule.
type Kind int

// Fault kinds.
const (
	// Panic panics at the injection point, exercising the recovery and
	// quarantine paths.
	Panic Kind = iota
	// Sleep blocks the injection point for the rule's duration,
	// exercising deadlines and cancellation promptness.
	Sleep
	// Error makes FireErr points return an injected error — the shape of
	// a dropped lease renewal, a partitioned peer, or a refused connection.
	// Fire points (which have no error return) treat an Error rule as a
	// no-op, so one spec can cover both hook styles safely.
	Error
)

func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Sleep:
		return "sleep"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Rule is one injection behavior at a (stage, device) point.
type Rule struct {
	Kind  Kind
	Sleep time.Duration // Sleep kind only
	// Count limits how many times the rule fires; 0 means unlimited.
	Count int
}

// PanicValue is what injected panics carry, so recovery paths (and tests)
// can tell an injected fault from a real bug.
type PanicValue struct {
	Stage  string
	Device string
}

func (p PanicValue) String() string {
	return fmt.Sprintf("injected fault at %s/%s", p.Stage, p.Device)
}

// InjectedError is what FireErr points return for Error rules, so callers
// (and tests) can tell an injected partition from a real network failure.
type InjectedError struct {
	Stage  string
	Device string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("injected error at %s/%s", e.Stage, e.Device)
}

// Injector holds a set of rules. The zero value has no rules; use New.
type Injector struct {
	mu    sync.Mutex
	rules map[string]*ruleState
	hits  map[string]int
}

type ruleState struct {
	rule  Rule
	fired int
}

// New returns an empty Injector.
func New() *Injector {
	return &Injector{rules: make(map[string]*ruleState), hits: make(map[string]int)}
}

func key(stage, device string) string { return stage + "/" + device }

// Enable installs a rule at stage/device. Device "*" matches any device.
func (i *Injector) Enable(stage, device string, r Rule) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rules[key(stage, device)] = &ruleState{rule: r}
	return i
}

// Hits returns a copy of the per-point firing counters (keyed
// "stage/device" with the concrete device that fired, not "*").
func (i *Injector) Hits() map[string]int {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make(map[string]int, len(i.hits))
	for k, v := range i.hits {
		out[k] = v
	}
	return out
}

// lookup finds the applicable rule and consumes one firing.
func (i *Injector) lookup(stage, device string) (Rule, bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	st, ok := i.rules[key(stage, device)]
	if !ok {
		st, ok = i.rules[key(stage, "*")]
	}
	if !ok {
		return Rule{}, false
	}
	if st.rule.Count > 0 && st.fired >= st.rule.Count {
		return Rule{}, false
	}
	st.fired++
	i.hits[key(stage, device)]++
	return st.rule, true
}

// fire executes the applicable rule, if any. Error rules are inert here:
// a point with no error return has no channel to surface one.
func (i *Injector) fire(stage, device string) {
	r, ok := i.lookup(stage, device)
	if !ok {
		return
	}
	switch r.Kind {
	case Panic:
		panic(PanicValue{Stage: stage, Device: device})
	case Sleep:
		time.Sleep(r.Sleep)
	}
}

// fireErr executes the applicable rule at an error-returning point.
func (i *Injector) fireErr(stage, device string) error {
	r, ok := i.lookup(stage, device)
	if !ok {
		return nil
	}
	switch r.Kind {
	case Panic:
		panic(PanicValue{Stage: stage, Device: device})
	case Sleep:
		time.Sleep(r.Sleep)
	case Error:
		return &InjectedError{Stage: stage, Device: device}
	}
	return nil
}

// active is the process-wide injector consulted by Fire; nil (the normal
// state) makes every injection point a no-op.
var active atomic.Pointer[Injector]

// Activate installs i as the process-wide injector and returns a restore
// function (tests: defer Activate(inj)()). Only one injector is active at
// a time; chaos tests therefore must not run in parallel with each other.
func Activate(i *Injector) (restore func()) {
	prev := active.Swap(i)
	return func() { active.Store(prev) }
}

// Fire is the injection point hook called from production code. With no
// active injector it is a single atomic load.
func Fire(stage, device string) {
	if i := active.Load(); i != nil {
		i.fire(stage, device)
	}
}

// FireErr is the injection point hook for code paths that can fail with
// an error — dropped lease renewals, partitioned forwards. Error rules return
// an *InjectedError; panic and sleep rules behave as at Fire points.
func FireErr(stage, device string) error {
	if i := active.Load(); i != nil {
		return i.fireErr(stage, device)
	}
	return nil
}

// ParseSpec builds an Injector from a -faults flag value. The grammar is
// a comma-separated list of point=behavior entries:
//
//	parse:leaf1=panic,dataplane:*=sleep:100ms,fib:spine2=panic:1
//
// point is stage:device (device may be "*"); behavior is "panic",
// "error", or "sleep:<duration>", optionally suffixed ":<count>" to bound
// firings. "error" only bites at FireErr points (cluster lease renewals and
// forwards); plain Fire points ignore it.
func ParseSpec(spec string) (*Injector, error) {
	inj := New()
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		pt, behavior, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("faults: entry %q lacks '='", entry)
		}
		stage, device, ok := strings.Cut(pt, ":")
		if !ok || stage == "" || device == "" {
			return nil, fmt.Errorf("faults: point %q is not stage:device", pt)
		}
		parts := strings.Split(behavior, ":")
		var r Rule
		switch parts[0] {
		case "panic", "error":
			r.Kind = Panic
			if parts[0] == "error" {
				r.Kind = Error
			}
			if len(parts) > 2 {
				return nil, fmt.Errorf("faults: bad behavior %q", behavior)
			}
			if len(parts) == 2 {
				if _, err := fmt.Sscanf(parts[1], "%d", &r.Count); err != nil {
					return nil, fmt.Errorf("faults: bad count in %q", behavior)
				}
			}
		case "sleep":
			r.Kind = Sleep
			if len(parts) < 2 || len(parts) > 3 {
				return nil, fmt.Errorf("faults: sleep needs a duration in %q", behavior)
			}
			d, err := time.ParseDuration(parts[1])
			if err != nil {
				return nil, fmt.Errorf("faults: bad duration in %q: %v", behavior, err)
			}
			r.Sleep = d
			if len(parts) == 3 {
				if _, err := fmt.Sscanf(parts[2], "%d", &r.Count); err != nil {
					return nil, fmt.Errorf("faults: bad count in %q", behavior)
				}
			}
		default:
			return nil, fmt.Errorf("faults: unknown behavior %q", parts[0])
		}
		inj.Enable(stage, device, r)
	}
	return inj, nil
}

// Describe renders the injector's rules deterministically (CLI echo).
func (i *Injector) Describe() string {
	i.mu.Lock()
	defer i.mu.Unlock()
	keys := make([]string, 0, len(i.rules))
	for k := range i.rules {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%s", k, i.rules[k].rule.Kind))
	}
	return strings.Join(parts, ",")
}
