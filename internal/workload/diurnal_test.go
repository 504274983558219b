package workload

import (
	"strings"
	"testing"
)

// TestDiurnalSmokeGate runs the compressed two-day diurnal cycle on a
// second seed and holds it to the full acceptance gate: SLOs intact,
// the fleet flexed both ways with one retirement crossing a kill -9,
// nothing orphaned or leaked, every shed retryable — and the whole run
// byte-identically reproducible.
func TestDiurnalSmokeGate(t *testing.T) {
	out, _, err := experiment(t, "diurnal").Replay(11, true)
	if err != nil {
		t.Fatalf("diurnal run: %v", err)
	}
	if len(out.Violations) != 0 {
		t.Errorf("gate violations:\n  %s", strings.Join(out.Violations, "\n  "))
		for _, line := range out.Report {
			t.Log(line)
		}
	}
}
