package main

import (
	"context"
	"testing"
)

// TestHitHotRuns drives a short hit-hot run end to end, untraced and
// traced, and expects every answer to pass the oracle and every metric
// of BENCHMARK.json's kind to be reported.
func TestHitHotRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a daemon and plans every stage")
	}
	for _, trace := range []bool{false, true} {
		rep, err := run(context.Background(), options{workload: hitHot, seed: 1, seconds: 1, trace: trace, work: t.TempDir()})
		if err != nil {
			t.Fatalf("trace=%t: %v", trace, err)
		}
		if !rep.correct() {
			t.Fatalf("trace=%t: %d of %d failed, problems %v", trace, rep.failed, rep.attempted, rep.problems)
		}
		want := 4
		if trace {
			want = 35
		}
		if len(rep.metrics) != want {
			t.Errorf("trace=%t: %d metrics, want %d", trace, len(rep.metrics), want)
		}
	}
}
