package workload

import (
	"strings"
	"testing"
)

// The SLO run is the acceptance gate for the observability stack: every
// creation — batched, serial, faulted-over — must yield exactly one
// rooted span tree crossing shop, plant and clone layers, a complete
// flight-recorder timeline, and objectives that hold.
func TestSLORunSmoke(t *testing.T) {
	res, err := RunSLO(42, SLOOptions{WarmBatch: 8, ChaosRequests: 8})
	if err != nil {
		t.Fatalf("RunSLO: %v", err)
	}
	if v := res.GateViolations(); len(v) != 0 {
		t.Errorf("gate violations:\n  %s", strings.Join(v, "\n  "))
	}
}

func TestSLORunDeterministicAcrossRuns(t *testing.T) {
	opts := SLOOptions{WarmBatch: 4, ChaosRequests: 4}
	a, err := RunSLO(7, opts)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	b, err := RunSLO(7, opts)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatal("same-seed SLO runs diverged")
	}
}
