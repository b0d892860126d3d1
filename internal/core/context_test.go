package core

import (
	"context"
	"testing"

	"repro/internal/netgen"
	"repro/internal/pipeline"
)

// TestCancelledAnalysisDoesNotLeakAcrossSnapshots binds an already
// cancelled context to one snapshot's analysis and checks that a second
// snapshot loaded from the same texts on the same caching pipeline — which
// never saw a context — is neither cancelled nor answers differently from
// a fresh pipeline. Analyses are per snapshot; only the graph is shared.
func TestCancelledAnalysisDoesNotLeakAcrossSnapshots(t *testing.T) {
	texts := make(map[string]string)
	for _, dt := range netgen.Catalog()[0].Gen().Devices { // NET1
		texts[dt.Hostname] = dt.Text
	}
	pl := pipeline.New(pipeline.Config{})

	s1 := LoadTextWith(pl, texts)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s1.Analysis().WithContext(ctx)
	s1.Reachability(ReachabilityParams{})
	if !s1.Cancelled() {
		t.Fatal("s1 ran under a cancelled context but is not marked cancelled")
	}

	s2 := LoadTextWith(pl, texts)
	got := s2.Reachability(ReachabilityParams{})
	if s2.Cancelled() {
		t.Error("s2 never saw a context but reports cancellation")
	}
	want := LoadTextWith(pipeline.New(pipeline.Config{}), texts).Reachability(ReachabilityParams{})
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("s2 answered %d sources, fresh pipeline %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Source != w.Source || g.HasPositive != w.HasPositive || g.HasNegative != w.HasNegative ||
			g.PositiveExample != w.PositiveExample || g.NegativeExample != w.NegativeExample {
			t.Errorf("%v: s2 %+v/%+v (pos %v neg %v), fresh %+v/%+v (pos %v neg %v)",
				w.Source, g.PositiveExample, g.NegativeExample, g.HasPositive, g.HasNegative,
				w.PositiveExample, w.NegativeExample, w.HasPositive, w.HasNegative)
		}
	}
}
