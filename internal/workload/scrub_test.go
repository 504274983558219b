package workload

import (
	"strings"
	"testing"
)

// The scrub run is the acceptance gate for the integrity layer: under
// injected corruption every completed creation must have resumed from
// verified state, every detected corruption must be quarantined and
// either repaired or retired, seeds must survive, and the end-of-run
// deep audit must come back clean.
func TestScrubRunSmoke(t *testing.T) {
	res, err := RunScrub(42, SmokeScrubOptions())
	if err != nil {
		t.Fatalf("RunScrub: %v", err)
	}
	if v := res.GateViolations(); len(v) != 0 {
		t.Errorf("integrity gate:\n  %s", strings.Join(v, "\n  "))
	}
}

// A clean system — no fault rules armed — must sail through the same
// pipeline with zero detections, zero quarantines, and zero repair
// traffic: the integrity layer is pure verification overhead when
// nothing is wrong.
func TestScrubCleanRunDetectsNothing(t *testing.T) {
	opts := SmokeScrubOptions()
	opts.CorruptProb = -1 // withDefaults treats 0 as "default"; negative disarms
	opts.ScrubCorruptProb = -1
	opts.TornWriteProb = -1
	res, err := RunScrub(11, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("%d requests failed on a clean system", res.Failed)
	}
	if res.Detected != 0 || res.Quarantines != 0 || res.Repairs != 0 {
		t.Errorf("clean run detected=%d quarantined=%d repaired=%d, want all zero",
			res.Detected, res.Quarantines, res.Repairs)
	}
	if len(res.DirtyAtEnd) != 0 || res.InQuarantine != 0 || !res.SeedsIntact {
		t.Errorf("clean run end audit: dirty=%v quarantine=%d seeds=%v",
			res.DirtyAtEnd, res.InQuarantine, res.SeedsIntact)
	}
}

func TestScrubRunDeterministicAcrossRuns(t *testing.T) {
	opts := SmokeScrubOptions()
	a, err := RunScrub(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScrub(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Errorf("same-seed scrub runs diverged:\n--- first ---\n%s\n--- second ---\n%s",
			a.Fingerprint, b.Fingerprint)
	}
}
