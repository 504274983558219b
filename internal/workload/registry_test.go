package workload

import (
	"strings"
	"testing"
)

// experiment looks up a registry entry by name.
func experiment(t *testing.T, name string) Experiment {
	t.Helper()
	for _, e := range Experiments() {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("no experiment %q in the registry", name)
	return Experiment{}
}

// Every registry entry runs at smoke scale. Each gated entry (one with
// a fingerprint) must pass its gate on seed 42 — Replay adds a
// violation when the same-seed rerun is not byte-identical — and
// change its fingerprint on seed 43, proof the seed is wired through
// rather than ignored.
func TestExperimentRegistry(t *testing.T) {
	names := make(map[string]bool)
	gated := 0
	for _, e := range Experiments() {
		if names[e.Name] {
			t.Errorf("experiment %q registered twice", e.Name)
		}
		names[e.Name] = true
		out, _, err := e.Replay(42, true)
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		if len(out.Violations) != 0 {
			t.Errorf("%s: gate violations:\n  %s", e.Name, strings.Join(out.Violations, "\n  "))
		}
		for _, a := range out.Artifacts {
			if !strings.HasPrefix(a.Name, e.Name) {
				t.Errorf("%s: artifact %q does not start with the experiment name", e.Name, a.Name)
			}
		}
		if out.Fingerprint == "" {
			continue
		}
		gated++
		other, err := e.Run(43, true)
		if err != nil {
			t.Errorf("%s seed 43: %v", e.Name, err)
			continue
		}
		if other.Fingerprint == out.Fingerprint {
			t.Errorf("%s: seeds 42 and 43 produced identical fingerprints; seed is not wired through", e.Name)
		}
	}
	if gated == 0 {
		t.Error("no gated experiments in the registry")
	}
}
