package workload

import (
	"strings"
	"testing"
)

// The pipeline run is the acceptance gate for batched creation: bigger
// batches must raise throughput, the cache must be warm after the first
// clone of each golden image, and a single-request creation must stay
// byte-identical to the serial path.
func TestPipelineRunSmoke(t *testing.T) {
	res, err := RunPipeline(42, PipelineOptions{Sizes: []int{1, 4, 16}})
	if err != nil {
		t.Fatalf("RunPipeline: %v", err)
	}
	if len(res.Batches) != 3 {
		t.Fatalf("%d batch points, want 3", len(res.Batches))
	}
	if v := res.GateViolations(); len(v) != 0 {
		t.Errorf("gate violations:\n  %s", strings.Join(v, "\n  "))
	}
}

func TestPipelineRunDeterministicAcrossRuns(t *testing.T) {
	opts := PipelineOptions{Sizes: []int{4}}
	a, err := RunPipeline(7, opts)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	b, err := RunPipeline(7, opts)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if a.Batches[0] != b.Batches[0] {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a.Batches[0], b.Batches[0])
	}
	if a.SerialFingerprint != b.SerialFingerprint {
		t.Fatal("serial fingerprints diverged across same-seed runs")
	}
}
