package fault

import (
	"testing"
	"time"

	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.SetProb("p", ActionFail, "x", 1)
	r.Arm("p", PlantCrash, "", 3)
	if r.Should("p", ActionFail, "x") {
		t.Fatal("nil registry injected a fault")
	}
	if d := r.DelayFor("p", RPCDelay, ""); d != 0 {
		t.Fatalf("nil registry delay = %v", d)
	}
	if n := r.Total(ActionFail); n != 0 {
		t.Fatalf("nil registry Total = %d", n)
	}
	if got := len(r.Counts()); got != 0 {
		t.Fatalf("nil registry Counts has %d entries", got)
	}
}

func TestOneShotTriggersFireBeforeProbability(t *testing.T) {
	r := NewRegistry(1)
	r.Arm("plant00", PlantCrash, "create", 2)
	for i := 0; i < 2; i++ {
		if !r.Should("plant00", PlantCrash, "create") {
			t.Fatalf("armed trigger %d did not fire", i)
		}
	}
	if r.Should("plant00", PlantCrash, "create") {
		t.Fatal("trigger fired more times than armed")
	}
	if got := r.Count("plant00", PlantCrash, "create"); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
}

func TestProbabilityZeroAndOne(t *testing.T) {
	r := NewRegistry(7)
	r.SetProb("p", CloneIO, "", 1)
	r.SetProb("q", CloneIO, "", 0)
	for i := 0; i < 50; i++ {
		if !r.Should("p", CloneIO, "") {
			t.Fatal("prob 1 did not fire")
		}
		if r.Should("q", CloneIO, "") {
			t.Fatal("prob 0 fired")
		}
	}
	if got := r.Total(CloneIO); got != 50 {
		t.Fatalf("Total = %d, want 50", got)
	}
}

func TestLookupSpecificity(t *testing.T) {
	r := NewRegistry(3)
	r.SetProb(Wildcard, ActionFail, "", 0)       // site-wide default everywhere
	r.SetProb("p", ActionFail, "", 0)            // site default
	r.SetProb(Wildcard, ActionFail, "config", 0) // op on every site
	r.SetProb("p", ActionFail, "config", 1)      // most specific

	if !r.Should("p", ActionFail, "config") {
		t.Fatal("most specific rule not selected")
	}
	if r.Should("p", ActionFail, "other") { // falls to site default (0)
		t.Fatal("site default should not fire")
	}
	if r.Should("q", ActionFail, "other") { // falls to wildcard default (0)
		t.Fatal("wildcard default should not fire")
	}

	r2 := NewRegistry(3)
	r2.SetProb(Wildcard, ActionFail, "config", 1)
	if !r2.Should("anything", ActionFail, "config") {
		t.Fatal("wildcard op rule not selected")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []bool {
		r := NewRegistry(99)
		r.SetProb(Wildcard, RPCDrop, "", 0.3)
		out := make([]bool, 200)
		for i := range out {
			out[i] = r.Should("plant01", RPCDrop, "")
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged between identical runs", i)
		}
	}
	fired := 0
	for _, v := range a {
		if v {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("fired %d/%d with prob 0.3 — degenerate stream", fired, len(a))
	}
}

// A miss (no matching rule) and a zero-prob rule must both consume zero
// RNG draws, so arming new never-firing rules cannot perturb the draw
// sequence of unrelated checks — the property a plant's own registry,
// sharing the plant's RNG stream, depends on to stay inert when empty.
func TestRuleMissConsumesNoDraws(t *testing.T) {
	rng1 := sim.NewRNG(5)
	rng2 := sim.NewRNG(5)
	r := NewWithRNG(rng2)
	r.SetProb("p", ActionFail, "fires", 0.5)
	r.SetProb("p", CloneIO, "", 0)

	for i := 0; i < 100; i++ {
		r.Should("p", ActionFail, "no-such-rule") // miss: no draw
		r.Should("p", CloneIO, "")                // zero prob: no draw
		want := rng1.Bernoulli(0.5)
		if got := r.Should("p", ActionFail, "fires"); got != want {
			t.Fatalf("draw %d: registry %v, reference %v — extra draws consumed", i, got, want)
		}
	}
}

func TestDelayFor(t *testing.T) {
	r := NewRegistry(11)
	r.SetProb("p", RPCDelay, "", 1)
	r.SetDelay("p", RPCDelay, "", 250*time.Millisecond)
	if d := r.DelayFor("p", RPCDelay, ""); d != 250*time.Millisecond {
		t.Fatalf("DelayFor = %v, want 250ms", d)
	}
	if d := r.DelayFor("q", RPCDelay, ""); d != 0 {
		t.Fatalf("unmatched DelayFor = %v, want 0", d)
	}
	r.SetProb("p", RPCDelay, "", 0)
	if d := r.DelayFor("p", RPCDelay, ""); d != 0 {
		t.Fatalf("disabled DelayFor = %v, want 0", d)
	}
}

func TestCountsAndSummary(t *testing.T) {
	r := NewRegistry(2)
	r.Arm("p", PlantCrash, "create", 1)
	r.Arm("q", RPCDrop, "", 2)
	r.Should("p", PlantCrash, "create")
	r.Should("q", RPCDrop, "")
	r.Should("q", RPCDrop, "")

	counts := r.Counts()
	if counts["p/plant-crash/create"] != 1 || counts["q/rpc-drop"] != 2 {
		t.Fatalf("Counts = %v", counts)
	}
	if got := r.Total(PlantCrash); got != 1 {
		t.Fatalf("Total(PlantCrash) = %d", got)
	}
	sum := r.Summary()
	want := []string{"p/plant-crash/create=1", "q/rpc-drop=2"}
	if len(sum) != len(want) {
		t.Fatalf("Summary = %v", sum)
	}
	for i := range want {
		if sum[i] != want[i] {
			t.Fatalf("Summary[%d] = %q, want %q", i, sum[i], want[i])
		}
	}
}

func TestTelemetryCounters(t *testing.T) {
	hub := telemetry.New()
	r := NewRegistry(4)
	r.SetTelemetry(hub)
	r.Arm("p", CloneIO, "", 3)
	for i := 0; i < 3; i++ {
		r.Should("p", CloneIO, "")
	}
	if got := hub.Counter("fault.injections." + string(CloneIO)).Value(); got != 3 {
		t.Fatalf("telemetry counter = %d, want 3", got)
	}
}

// Regression: SetTelemetry used to hard-code the kind list, so a newly
// added kind silently missed its injection counter. The counter set is
// now derived from Kinds; every exported kind must register and count.
func TestTelemetryCoversAllKinds(t *testing.T) {
	exported := []Kind{PlantCrash, RPCDrop, RPCDelay, CloneIO, SlowBid, ActionFail, CorruptExtent, TornWrite, DaemonKill}
	if len(Kinds) != len(exported) {
		t.Fatalf("Kinds lists %d kinds, exported are %d — keep the slice in sync", len(Kinds), len(exported))
	}
	listed := map[Kind]bool{}
	for _, k := range Kinds {
		listed[k] = true
	}
	for _, k := range exported {
		if !listed[k] {
			t.Fatalf("exported kind %q missing from Kinds", k)
		}
	}

	hub := telemetry.New()
	r := NewRegistry(9)
	r.SetTelemetry(hub)
	for _, k := range Kinds {
		r.Arm("site", k, "op", 1)
		if !r.Should("site", k, "op") {
			t.Fatalf("armed %q did not fire", k)
		}
		if got := hub.Counter("fault.injections." + string(k)).Value(); got != 1 {
			t.Errorf("kind %q: telemetry counter = %d, want 1", k, got)
		}
	}
}
