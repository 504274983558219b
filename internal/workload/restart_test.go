package workload

import (
	"strings"
	"testing"
)

// The restart run is the acceptance gate for the journaled control
// plane: kill-9 at the write-ahead protocol's worst instants must
// still yield exactly-once creations — zero lost, zero duplicated —
// with routes, quarantine and the catalog rebuilt from the journal.
func TestRestartRunIsExactlyOnce(t *testing.T) {
	res, err := RunRestart(42, RestartOptions{})
	if err != nil {
		t.Fatalf("RunRestart: %v", err)
	}
	if v := res.GateViolations(); len(v) != 0 {
		t.Errorf("gate violations:\n  %s\n%s", strings.Join(v, "\n  "), res.Fingerprint)
	}
}

func TestRestartRunDeterministicAcrossRuns(t *testing.T) {
	a, err := RunRestart(7, RestartOptions{Requests: 12})
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	b, err := RunRestart(7, RestartOptions{Requests: 12})
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("same seed, different outcomes:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			a.Fingerprint, b.Fingerprint)
	}
	c, err := RunRestart(8, RestartOptions{Requests: 12})
	if err != nil {
		t.Fatalf("run 3: %v", err)
	}
	if a.Fingerprint == c.Fingerprint {
		t.Error("different seeds produced identical fingerprints; seed is not wired through")
	}
}
