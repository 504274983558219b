package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestPercentileCountsFailuresAsMisses(t *testing.T) {
	xs := []float64{1, 2, 3, miss, miss}
	if v, _ := percentile(xs, 0.5); v != 3 {
		t.Fatalf("p50 = %v, want 3", v)
	}
	if v, _ := percentile(xs, 0.8); !math.IsInf(v, 1) {
		t.Fatalf("p80 = %v, want a miss", v)
	}
	if v, beyond := percentile(xs, 0.6); v != 3 || beyond != 2 {
		t.Fatalf("p60 = %v with %d beyond, want 3 with 2", v, beyond)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := tail(xs, 0.99); ok {
		t.Fatal("p99 of 999 samples has only 9 beyond it; tail must refuse it")
	}
	xs = append(xs, 999)
	v, ok := tail(xs, 0.99)
	if !ok || v != 989 {
		t.Fatalf("p99 of 1000 samples = %v (ok=%v), want 989", v, ok)
	}
	if _, beyond := percentile(xs, 0.99); beyond != 10 {
		t.Fatalf("%d samples beyond p99 of 1000, want 10", beyond)
	}
}

// schedule flattens a generated stream for comparison.
func schedule(ss []session) []string {
	var out []string
	for _, s := range ss {
		out = append(out, fmt.Sprint(s.Due, s.Hold, s.Spec.Name, s.MemMB, s.Cell))
	}
	return out
}

func TestGeneratorIsDeterministic(t *testing.T) {
	gens := map[string]func(seed int64) ([]session, error){
		"site": func(seed int64) ([]session, error) { return siteSessions(seed, 200, 10*time.Second, 600*time.Second) },
		"zipf": func(seed int64) ([]session, error) {
			return zipfSessions(seed, 200, 50, 1.1, 3, 0.7, 2*time.Second, 40*time.Second)
		},
		"tcp": func(seed int64) ([]session, error) { return tcpSessions(seed, 200, 1, time.Millisecond) },
	}
	for name, gen := range gens {
		a, err := gen(7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := gen(7)
		c, _ := gen(8)
		if !reflect.DeepEqual(schedule(a), schedule(b)) {
			t.Errorf("%s: two streams from seed 7 differ", name)
		}
		if reflect.DeepEqual(schedule(a), schedule(c)) {
			t.Errorf("%s: seeds 7 and 8 generate the same stream", name)
		}
	}
}

// smallFederation is federationConfig scaled down for tests.
func smallFederation() simConfig {
	cfg := federationConfig()
	cfg.sessions = func(seed int64) ([]session, error) {
		return zipfSessions(seed, 120, 30, 1.1, 3, 0.7, 2500*time.Millisecond, 40*time.Second)
	}
	return cfg
}

func smallSite() simConfig {
	cfg := siteConfig()
	cfg.sessions = func(seed int64) ([]session, error) { return siteSessions(seed, 80, 10*time.Second, 600*time.Second) }
	return cfg
}

func TestTracedRunMatchesUntraced(t *testing.T) {
	for name, cfg := range map[string]simConfig{"site": smallSite(), "federation": smallFederation()} {
		sessions, err := cfg.sessions(3)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := buildSim(cfg, 3, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := runSim(plain, sessions, cfg.gossipEvery, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracedRun()
		traced, err := buildSim(cfg, 3, tr.hub, tr.t)
		if err != nil {
			t.Fatal(err)
		}
		got, gs, err := runSim(traced, sessions, cfg.gossipEvery, tr.t, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameOutcomes(want, got, true); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := auditSim(traced, sessions, got); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if n := tr.t.op("plant.create").calls; n < len(sessions) {
			t.Errorf("%s: wrapper saw %d plant creates for %d sessions", name, n, len(sessions))
		}
		if cfg.gossipEvery > 0 && gs.rounds == 0 {
			t.Errorf("%s: no gossip round ran", name)
		}
	}
}

func TestSkippedDestroyFailsLiveSetAudit(t *testing.T) {
	cfg := smallSite()
	sessions, err := cfg.sessions(5)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := buildSim(cfg, 5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := runSim(sd, sessions, 0, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	err = auditSim(sd, sessions, out)
	if err == nil || !strings.Contains(err.Error(), "hosted but not live") {
		t.Fatalf("audit after a skipped destroy = %v, want a hosted-but-not-live finding", err)
	}
}

func TestDaemonsDriveAndAudit(t *testing.T) {
	open, pool, _, err := tcpSchedule(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	open = open[:80]
	for i := range open {
		open[i].s.Due = time.Duration(i) * time.Millisecond
	}
	drive := func(tr *tracer) *tcpRun {
		d, err := startDaemons(4, tr)
		if err != nil {
			t.Fatal(err)
		}
		defer d.stop()
		run, err := driveDaemons(d, open, pool, 200*time.Millisecond, tr)
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	plain := drive(nil)
	tr := newTracer()
	traced := drive(tr)
	if err := sameOutcomes(plain.open, traced.open, false); err != nil {
		t.Fatal(err)
	}
	if err := problems(auditOutcomes(sessionsOf(open), plain.open, false)); err != nil {
		t.Fatal(err)
	}
	if tr.op("plant.estimate").calls == 0 || tr.op("shopd.closed").calls == 0 {
		t.Fatal("traced drive recorded no plant or shop-daemon calls")
	}
}

func TestLayerCPUReadsLabels(t *testing.T) {
	prof, err := profiled(func() error {
		pprof.Do(context.Background(), pprof.Labels("layer", "spin"), func(context.Context) {
			x := 0.0
			for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
				x += math.Sqrt(x + 1)
			}
			_ = x
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := layerCPU(prof)
	if err != nil {
		t.Fatal(err)
	}
	if cpu["spin"] <= 0 {
		t.Fatalf("no CPU attributed to the spin label: %v", cpu)
	}
}
