package workload

import (
	"strings"
	"testing"
)

// The chaos run is the acceptance gate for the whole failure-recovery
// stack: every request must eventually succeed via failover and retry,
// and draining the site must leave nothing behind — here at paper scale.
func TestChaosRunCompletesEveryRequest(t *testing.T) {
	res, err := RunChaos(42, ChaosOptions{})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if v := res.GateViolations(); len(v) != 0 {
		t.Errorf("gate violations:\n  %s\n%s", strings.Join(v, "\n  "), res.Fingerprint)
	}
}

func TestChaosRunDeterministicAcrossRuns(t *testing.T) {
	a, err := RunChaos(7, ChaosOptions{Requests: 16})
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	b, err := RunChaos(7, ChaosOptions{Requests: 16})
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("same seed diverged:\n--- run 1:\n%s\n--- run 2:\n%s", a.Fingerprint, b.Fingerprint)
	}
	c, err := RunChaos(8, ChaosOptions{Requests: 16})
	if err != nil {
		t.Fatalf("run 3: %v", err)
	}
	if c.Fingerprint == a.Fingerprint {
		t.Error("different seeds produced identical fingerprints")
	}
}
