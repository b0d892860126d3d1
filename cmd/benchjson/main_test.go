package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCheckRequiresEveryClusterFloor: once a snapshot carries a cluster
// summary, each cluster floor's metric is required — dropping any one of
// them fails the check instead of silently skipping its floor.
func TestCheckRequiresEveryClusterFloor(t *testing.T) {
	cluster := map[string]float64{
		"cluster-failover-p99-ms":          120,
		"cluster-failover-budget-ms":       200,
		"cluster-coord-failover-p99-ms":    110,
		"cluster-coord-failover-budget-ms": 400,
		"cluster-forward-overhead":         1.5,
		"cluster-heir-warm-hit-rate":       1,
	}
	write := func(t *testing.T, c map[string]float64) string {
		t.Helper()
		doc := File{Date: "2026-01-01", Cluster: c, Results: []Result{
			{Name: "BenchmarkParallelism/dev-204/workers-8", Metrics: map[string]float64{"sched-speedup": 5}},
			{Name: "BenchmarkIntern/interned", NsPerOp: 1},
			{Name: "BenchmarkIntern/not-interned", NsPerOp: 2},
		}}
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "BENCH_2026-01-01.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if code := runCheck("", write(t, cluster), 4); code != 0 {
		t.Fatalf("complete cluster summary: check exit %d, want 0", code)
	}
	for name := range cluster {
		partial := make(map[string]float64)
		for k, v := range cluster {
			if k != name {
				partial[k] = v
			}
		}
		if code := runCheck("", write(t, partial), 4); code == 0 {
			t.Errorf("cluster summary without %s passed the check", name)
		}
	}
}
