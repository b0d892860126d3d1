package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestPercentile(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{ten, 0.5, 5.5},
		{ten, 0.9, 9.1},
		{ten, 0, 1},
		{ten, 1, 10},
		{[]float64{7}, 0.9, 7},
	} {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
	if ten[0] != 10 {
		t.Error("percentile reordered its input")
	}
}

func TestCoveredUnionsOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 60, End: 70}, {Start: 90, End: 120}}
	if got := covered(parent, kids); got != 50 {
		t.Errorf("covered = %d, want 50", got)
	}
	if got := covered(parent, nil); got != 0 {
		t.Errorf("covered without children = %d, want 0", got)
	}
}

func TestChangeSequenceIsSeeded(t *testing.T) {
	texts, hosts, err := catalogTexts("NET4", "host")
	if err != nil {
		t.Fatal(err)
	}
	univ, err := editUniverse(texts, hosts, changeUniversePerKind)
	if err != nil {
		t.Fatal(err)
	}
	const perKind = 2
	a, b := changeSequence(univ, perKind, 7), changeSequence(univ, perKind, 7)
	if !reflect.DeepEqual(a, b) {
		t.Error("one seed gave two edit sequences")
	}
	if reflect.DeepEqual(a, changeSequence(univ, perKind, 8)) {
		t.Error("seeds 7 and 8 gave the same edit sequence")
	}
	kinds := map[string]int{}
	seen := map[string]bool{}
	for _, e := range a {
		kinds[e.Key[:len(e.Key)-len(e.Device)-1]]++
		if seen[e.Key] {
			t.Errorf("edit %s repeats", e.Key)
		}
		seen[e.Key] = true
		if e.Text == texts[e.Device] {
			t.Errorf("edit %s leaves %s unchanged", e.Key, e.Device)
		}
	}
	for _, k := range editKindNames {
		if kinds[k] != perKind {
			t.Errorf("%d %s edits, want %d", kinds[k], k, perKind)
		}
	}
}

func TestServiceSequencesAreSeeded(t *testing.T) {
	texts, hosts, err := catalogTexts("NET1", "Vlan")
	if err != nil {
		t.Fatal(err)
	}
	u, err := newServiceUniverse(texts, hosts)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.reach) != reachUniverse || len(u.service) != serviceQueryUniverse {
		t.Fatalf("universe has %d reachability and %d service queries", len(u.reach), len(u.service))
	}
	const perClient = 100
	a, b := serviceSequences(u, serviceClients, perClient, 3), serviceSequences(u, serviceClients, perClient, 3)
	if !reflect.DeepEqual(a, b) {
		t.Error("one seed gave two request sequences")
	}
	if reflect.DeepEqual(a, serviceSequences(u, serviceClients, perClient, 4)) {
		t.Error("seeds 3 and 4 gave the same request sequences")
	}
	for c, seq := range a {
		n := map[string]int{}
		for _, q := range seq {
			n[q.Kind]++
		}
		if n[reqWrite] != 15 || n[reqService] != 25 || n[reqReach] != 60 {
			t.Errorf("client %d mix %v, want 60/25/15", c, n)
		}
	}
	share, reads := measuredRepeatShare(a)
	if reads != 2*85 || math.Abs(share-repeatShare) > 0.01 {
		t.Errorf("repeat share %.3f over %d reads, want %.2f over 170", share, reads, repeatShare)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the names the program reports in
// step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(wl, have) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", wl, have)
	}
	check := func(what string, declared []named, reported []struct{ name, unit string }) {
		if len(declared) != len(reported) {
			t.Errorf("%s: BENCHMARK.json declares %d, program reports %d", what, len(declared), len(reported))
			return
		}
		for i, d := range declared {
			if d.Name != reported[i].name || d.Unit != reported[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)",
					what, i, d.Name, d.Unit, reported[i].name, reported[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
